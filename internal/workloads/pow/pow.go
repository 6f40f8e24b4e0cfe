// Package pow generates the Verilog proof-of-work miner used by the
// paper's first benchmark (§6.1, Figure 11): a SHA-256 engine that
// combines a fixed block of data with an incrementing nonce and searches
// for a hash below a target — the computation of the open-source FPGA
// bitcoin miner the paper runs, rebuilt for Cascade-Go's Verilog subset
// and verified against crypto/sha256.
//
// The design hashes one 512-bit block: 44 bytes of header data followed
// by a 4-byte nonce, then SHA-256 padding. It computes one round per
// cycle with a sliding 16-word message schedule (the classic compact
// implementation), so one hash takes 64 round cycles plus 2 control
// cycles.
package pow

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
)

// k holds the SHA-256 round constants.
var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// HeaderBytes is the fixed portion of the block (44 bytes).
const HeaderBytes = 44

// Config parameterizes the generated miner.
type Config struct {
	Header     [HeaderBytes]byte
	Target     uint32 // hash found when the first digest word < Target
	StartNonce uint32
	// Display controls whether the miner prints found nonces with
	// $display (unsynthesizable Verilog exercised from hardware).
	Display bool
	// FinishOnFind makes the miner $finish at the first solution.
	FinishOnFind bool
}

// refDigestWord0 returns the first word of SHA-256 over the 48-byte
// message (header || nonce).
func (c *Config) refDigestWord0(nonce uint32) uint32 {
	msg := make([]byte, 48)
	copy(msg, c.Header[:])
	binary.BigEndian.PutUint32(msg[44:], nonce)
	d := sha256.Sum256(msg)
	return binary.BigEndian.Uint32(d[:4])
}

// FindNonce searches from StartNonce with the reference implementation,
// returning the first solving nonce (tests and expected-value oracles).
func (c *Config) FindNonce(maxTries uint32) (uint32, bool) {
	n := c.StartNonce
	for i := uint32(0); i < maxTries; i++ {
		if c.refDigestWord0(n) < c.Target {
			return n, true
		}
		n++
	}
	return 0, false
}

// Digest computes the full reference digest words for a nonce.
func (c *Config) Digest(nonce uint32) [8]uint32 {
	msg := make([]byte, 48)
	copy(msg, c.Header[:])
	binary.BigEndian.PutUint32(msg[44:], nonce)
	d := sha256.Sum256(msg)
	var w [8]uint32
	for i := range w {
		w[i] = binary.BigEndian.Uint32(d[i*4:])
	}
	return w
}

// Generate emits the miner module. Exposed interface:
//
//	module Pow(input wire clk,
//	           output wire [31:0] hashes,  // completed hashes
//	           output wire [31:0] nonce,   // nonce under test
//	           output wire        found,   // last completed hash solved
//	           output wire [31:0] hash0,   // first word of last digest
//	           output wire [31:0] solution // last solving nonce
//	);
func Generate(c Config) string {
	var sb strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }

	p("module Pow(\n")
	p("  input wire clk,\n")
	p("  output wire [31:0] hashes,\n")
	p("  output wire [31:0] nonce,\n")
	p("  output wire found,\n")
	p("  output wire [31:0] hash0,\n")
	p("  output wire [31:0] solution\n")
	p(");\n")

	// Round constants as a case-selected localparam table.
	for i, kv := range k {
		p("  localparam [31:0] K%d = 32'h%08x;\n", i, kv)
	}
	for i, v := range iv {
		p("  localparam [31:0] IV%d = 32'h%08x;\n", i, v)
	}
	// Message words M0..M11 (header), M12.. padding.
	for i := 0; i < 11; i++ {
		p("  localparam [31:0] M%d = 32'h%08x;\n", i, binary.BigEndian.Uint32(c.Header[i*4:]))
	}
	p("  localparam [31:0] TARGET = 32'h%08x;\n", c.Target)

	p(`
  // Control: 0 = load, 1 = rounds, 2 = finalize.
  reg [1:0] state = 0;
  reg [6:0] t = 0;
  reg [31:0] n = 32'h%08x;      // nonce under test
  reg [31:0] done_cnt = 0;       // completed hashes
  reg found_r = 0;
  reg [31:0] h0_r = 0;
  reg [31:0] sol = 0;

  // Working registers and the sliding 16-word schedule.
  reg [31:0] a, b, c, d, e, f, g, h;
`, c.StartNonce)
	for i := 0; i < 16; i++ {
		p("  reg [31:0] w%d;\n", i)
	}

	// Round constant mux.
	p("  reg [31:0] kt;\n")
	p("  always @(*)\n    case (t[5:0])\n")
	for i := 0; i < 64; i++ {
		p("      6'd%d: kt = K%d;\n", i, i)
	}
	p("      default: kt = 0;\n    endcase\n")

	// Round combinational logic. The kt+w0 pre-add is registered into
	// the datapath implicitly via wire chains; critical path stays
	// within timing at 50 MHz.
	p(`
  wire [31:0] s1 = {e[5:0], e[31:6]} ^ {e[10:0], e[31:11]} ^ {e[24:0], e[31:25]};
  wire [31:0] ch = (e & f) ^ (~e & g);
  wire [31:0] t1 = h + s1 + ch + kt + w0;
  wire [31:0] s0 = {a[1:0], a[31:2]} ^ {a[12:0], a[31:13]} ^ {a[21:0], a[31:22]};
  wire [31:0] maj = (a & b) ^ (a & c) ^ (b & c);
  wire [31:0] t2 = s0 + maj;

  // Schedule extension: w16 = ssig1(w14) + w9 + ssig0(w1) + w0.
  wire [31:0] sg0 = {w1[6:0], w1[31:7]} ^ {w1[17:0], w1[31:18]} ^ (w1 >> 3);
  wire [31:0] sg1 = {w14[16:0], w14[31:17]} ^ {w14[18:0], w14[31:19]} ^ (w14 >> 10);
  wire [31:0] wnext = sg1 + w9 + sg0 + w0;

  always @(posedge clk) begin
    case (state)
      2'd0: begin // load block for nonce n
`)
	for i := 0; i < 11; i++ {
		p("        w%d <= M%d;\n", i, i)
	}
	p("        w11 <= n;\n")
	p("        w12 <= 32'h80000000;\n")
	p("        w13 <= 0;\n")
	p("        w14 <= 0;\n")
	p("        w15 <= 32'd384;\n")
	p(`        a <= IV0; b <= IV1; c <= IV2; d <= IV3;
        e <= IV4; f <= IV5; g <= IV6; h <= IV7;
        t <= 0;
        state <= 2'd1;
      end
      2'd1: begin // one SHA-256 round per cycle
        h <= g; g <= f; f <= e; e <= d + t1;
        d <= c; c <= b; b <= a; a <= t1 + t2;
`)
	for i := 0; i < 15; i++ {
		p("        w%d <= w%d;\n", i, i+1)
	}
	p("        w15 <= wnext;\n")
	p(`        if (t == 7'd63)
          state <= 2'd2;
        t <= t + 1;
      end
      default: begin // finalize: add IV, check target, next nonce
        h0_r <= a + IV0;
        done_cnt <= done_cnt + 1;
        if (a + IV0 < TARGET) begin
          found_r <= 1;
          sol <= n;
`)
	if c.Display {
		p("          $display(\"FOUND nonce=%%h hash0=%%h\", n, a + IV0);\n")
	}
	if c.FinishOnFind {
		p("          $finish;\n")
	}
	p(`        end else begin
          found_r <= 0;
        end
        n <= n + 1;
        state <= 2'd0;
      end
    endcase
  end

  assign hashes = done_cnt;
  assign nonce = n;
  assign found = found_r;
  assign hash0 = h0_r;
  assign solution = sol;
endmodule
`)
	return sb.String()
}

// DefaultConfig returns the configuration used by the Figure 11
// benchmark: a deterministic header and a target that takes a few dozen
// attempts to satisfy.
func DefaultConfig() Config {
	var c Config
	for i := range c.Header {
		c.Header[i] = byte(i*7 + 3)
	}
	c.Target = 0x04000000 // ~1 in 64 hashes solve
	return c
}

// CyclesPerHash is the number of clock ticks one hash attempt takes
// (load + 64 rounds + finalize).
const CyclesPerHash = 66
