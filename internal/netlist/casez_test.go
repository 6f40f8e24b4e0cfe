package netlist

import (
	"testing"

	"cascade/internal/bits"
	"cascade/internal/elab"
	"cascade/internal/imagetest"
	"cascade/internal/verilog"
)

// casezDecoder is a priority decoder using wildcard labels — the classic
// casez idiom.
const casezDecoder = `
module M(input wire clk, input wire [7:0] req, output reg [2:0] grant);
  always @(*)
    casez (req)
      8'b1???????: grant = 3'd7;
      8'b01??????: grant = 3'd6;
      8'b001?????: grant = 3'd5;
      8'b0001????: grant = 3'd4;
      8'b00001???: grant = 3'd3;
      8'b000001??: grant = 3'd2;
      8'b0000001?: grant = 3'd1;
      default:     grant = 3'd0;
    endcase
endmodule`

func TestCasezWildcardPriorityDecoder(t *testing.T) {
	d := newDual(t, casezDecoder)
	ref := func(req uint64) uint64 {
		for b := 7; b >= 1; b-- {
			if req>>uint(b)&1 == 1 {
				return uint64(b)
			}
		}
		return 0
	}
	for req := uint64(0); req < 256; req++ {
		d.setInput("req", bits.FromUint64(8, req))
		d.settle()
		d.check(t, "casez")
		got := imagetest.Of(d.s.Flat().Layout(), d.s.GetState()).Scalar("grant").Uint64()
		if got != ref(req) {
			t.Fatalf("req=%08b: grant=%d, want %d", req, got, ref(req))
		}
	}
}

// tryCompile parses, elaborates, and synthesizes, returning any error.
func tryCompile(src string) (*Program, string, error) {
	st, errs := verilog.ParseSourceText(src)
	if errs != nil {
		return nil, "parse", errs[0]
	}
	f, err := elab.Elaborate(st.Modules[0], "dut", nil)
	if err != nil {
		return nil, "elab", err
	}
	p, err := Compile(f)
	return p, "compile", err
}

func TestCasezWildcardRequiresCasez(t *testing.T) {
	src := `
module M(input wire clk, input wire [3:0] s, output reg q);
  always @(*)
    case (s)
      4'b1??0: q = 1;
      default: q = 0;
    endcase
endmodule`
	if _, _, err := tryCompile(src); err == nil {
		t.Fatal("wildcard label in plain case should be rejected")
	}
}
