package netlist

import "testing"

// fingerprintGolden is the digest of goldenSrc recorded with the
// original (encoding/binary.Write) hash. Cache keys, on-disk .bits
// entries and CI's .cascade-bits store are all addressed by it, so a
// faster Fingerprint must reproduce it byte for byte.
const fingerprintGolden = "ace8e30ad8b411c975bbc4d1420f5aa826aafa956658088f3b9977b118451d9c"

// goldenSrc covers every kind of field the hash walks: a narrow and a
// wider-than-64-bit register with initial values (ResetState), a memory
// with an initialised word (ResetMems), constants of both widths, and a
// system task with a format string.
const goldenSrc = `
module M(input wire clk, input wire [3:0] addr, output wire [15:0] rdata);
  reg [7:0] narrow = 8'h5a;
  reg [99:0] wide = 100'h123456789abcdef0123456789;
  reg [15:0] mem [0:15];
  initial mem[3] = 16'hbeef;
  assign rdata = mem[addr] ^ 16'h00ff;
  always @(posedge clk) begin
    narrow <= narrow + 8'd3;
    wide <= {wide[98:0], wide[99]} ^ 100'hfedcba9876543210fedcba987;
    mem[addr] <= {narrow, narrow};
    $display("%m n=%h w=%h", narrow, wide);
  end
endmodule`

func TestFingerprintGolden(t *testing.T) {
	p, stage, err := tryCompile(goldenSrc)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	wide, mems, tasks := false, len(p.Mems), len(p.Tasks)
	for _, s := range p.Slots {
		wide = wide || s.Wide
	}
	if !wide || mems == 0 || tasks == 0 || len(p.ResetMems) == 0 {
		t.Fatalf("golden module lost coverage: wide=%v mems=%d tasks=%d resetMems=%d", wide, mems, tasks, len(p.ResetMems))
	}
	if got := p.Fingerprint(); got != fingerprintGolden {
		t.Errorf("Fingerprint = %s, want %s", got, fingerprintGolden)
	}
}
