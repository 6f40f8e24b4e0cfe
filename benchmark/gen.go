package main

import (
	"fmt"
	"regexp"
	"strings"

	"cascade/internal/workloads/pow"
	"cascade/internal/workloads/regexgen"
)

// rng is splitmix64: the generators own their randomness so the same
// seed yields byte-identical inputs on every Go release.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG derives an independent stream per (seed, purpose) pair, so
// resizing one generator never shifts another's draws.
func newRNG(seed uint64, purpose string) *rng {
	r := rng(seed)
	for _, c := range []byte(purpose) {
		r = rng(r.next() ^ uint64(c))
	}
	return &r
}

// --- proof of work ------------------------------------------------------

// powTarget makes one hash in 4096 a solution, so the reference search
// that places the solution costs a few thousand SHA-256 blocks.
const powTarget = 1 << 20

// powScan is how many nonces the placement scans at a time: enough that
// one scan almost always holds a usable solution, so set-up costs the
// same for nearly every seed.
const powScan = 1 << 15

// genMiner draws a header and places StartNonce so that the first
// solution is exactly the hashes-th attempt: the reference search
// (crypto/sha256 through pow.Config.Digest) scans powScan nonces from a
// seeded base and takes the first solving nonce preceded by at least
// hashes-1 non-solving ones, scanning on if there is none. It returns
// the configuration and the solving nonce.
func genMiner(r *rng, hashes uint32) (pow.Config, uint32) {
	var c pow.Config
	for i := range c.Header {
		c.Header[i] = byte(r.next())
	}
	c.Target = powTarget
	base := uint32(r.next()) >> 1 // headroom: the scan never wraps
	last := base - 1              // most recent solving nonce seen (or just before base)
	var sol uint32
	for found := false; !found; base += powScan {
		for n := base; n < base+powScan; n++ {
			if c.Digest(n)[0] >= c.Target {
				continue
			}
			if !found && n-last >= hashes {
				found, sol = true, n
			}
			last = n
		}
	}
	c.StartNonce = sol - (hashes - 1)
	return c, sol
}

// minerLine is what the generated miner prints for a solving nonce.
func minerLine(c *pow.Config, nonce uint32) string {
	return fmt.Sprintf("FOUND nonce=%08x hash0=%08x\n", nonce, c.Digest(nonce)[0])
}

// minerInstance instantiates module name as instance inst on the global
// clock, with its outputs on wires prefixed by inst.
func minerInstance(name, inst string) string {
	return fmt.Sprintf(`
wire [31:0] %[2]s_hashes, %[2]s_nonce, %[2]s_hash0, %[2]s_sol;
wire %[2]s_found;
%[1]s %[2]s(.clk(clk.val), .hashes(%[2]s_hashes), .nonce(%[2]s_nonce),
  .found(%[2]s_found), .hash0(%[2]s_hash0), .solution(%[2]s_sol));
`, name, inst)
}

// ladderInput is the pow_ladder workload: one miner that $finishes on
// its first solution, placed at attempt ladderHashes.
type ladderInput struct {
	program string
	want    string // the whole $display stream
	ticks   uint64 // clock ticks until $finish
}

func genLadder(seed uint64, hashes uint32) ladderInput {
	c, sol := genMiner(newRNG(seed, "pow_ladder"), hashes)
	c.Display, c.FinishOnFind = true, true
	// The package's own reference search must agree with the placement.
	if n, ok := c.FindNonce(hashes); !ok || n != sol {
		panic(fmt.Sprintf("pow placement: FindNonce=%#x ok=%v, placed %#x", n, ok, sol))
	}
	return ladderInput{
		program: pow.Generate(c) + minerInstance("Pow", "miner"),
		want:    minerLine(&c, sol),
		ticks:   uint64(hashes) * pow.CyclesPerHash,
	}
}

// lockstepInput is the remote_lockstep workload: independent miners with
// distinct headers that print every solution and never finish.
type lockstepInput struct {
	program string
	want    string
}

// lockstepTarget solves one hash in four, so a dozen attempts per miner
// print a handful of lines.
const lockstepTarget = 1 << 30

func genLockstep(seed uint64, miners int, ticks uint64) lockstepInput {
	r := newRNG(seed, "remote_lockstep")
	cfgs := make([]pow.Config, miners)
	var prog strings.Builder
	for i := range cfgs {
		c := &cfgs[i]
		for j := range c.Header {
			c.Header[j] = byte(r.next())
		}
		c.Target = lockstepTarget
		c.StartNonce = uint32(r.next()) >> 1
		c.Display = true
		name := fmt.Sprintf("Pow%d", i)
		prog.WriteString(strings.Replace(pow.Generate(*c), "module Pow(", "module "+name+"(", 1))
		prog.WriteString(minerInstance(name, fmt.Sprintf("m%d", i)))
	}
	// All miners finalize attempt k on the same tick; within a tick the
	// scheduler flushes engines in instantiation order.
	var want strings.Builder
	for k := uint32(0); uint64(k+1)*pow.CyclesPerHash <= ticks; k++ {
		for i := range cfgs {
			c := &cfgs[i]
			if n := c.StartNonce + k; c.Digest(n)[0] < c.Target {
				want.WriteString(minerLine(c, n))
			}
		}
	}
	return lockstepInput{program: prog.String(), want: want.String()}
}

// --- streaming regex ------------------------------------------------------

// streamPattern is the Snort-style pattern of the paper's Figure 12.
const streamPattern = `GET /[a-z]*\.html`

// tapPeriod is how many consumed bytes separate two tap lines.
const tapPeriod = 4096

// streamInput is the regex_stream workload.
type streamInput struct {
	program string // matcher + FIFO + end-of-stream $finish
	tap     string // the mid-stream eval
	log     []byte
	matches []uint32 // matches[k] = match ends within log[:k], k a multiple of tapPeriod
	final   string   // the line printed at end of stream
}

var (
	logMethods = []string{"GET", "GET", "GET", "POST", "HEAD", "PUT"}
	logExts    = []string{".html", ".html", ".php", ".png", ".js", ".css", "/"}
	logAgents  = []string{"curl/8.1", "Mozilla/5.0", "Go-http-client/1.1", "wget/1.21"}
)

// genLog writes a seeded HTTP request log of exactly size bytes.
func genLog(r *rng, size int) []byte {
	var b []byte
	for len(b) < size {
		b = append(b, logMethods[r.intn(len(logMethods))]...)
		b = append(b, " /"...)
		for n := 1 + r.intn(12); n > 0; n-- {
			c := byte('a' + r.intn(26))
			if r.intn(16) == 0 {
				c = "0_-/"[r.intn(4)]
			}
			b = append(b, c)
		}
		b = append(b, logExts[r.intn(len(logExts))]...)
		b = append(b, " HTTP/1.1\r\nHost: h"...)
		b = append(b, byte('0'+r.intn(10)))
		b = append(b, ".example\r\nUser-Agent: "...)
		b = append(b, logAgents[r.intn(len(logAgents))]...)
		b = append(b, "\r\n\r\n"...)
	}
	return b[:size]
}

func genStream(seed uint64, size int) (streamInput, error) {
	prog, dfa, err := regexgen.GenerateStreaming(streamPattern)
	if err != nil {
		return streamInput{}, err
	}
	in := streamInput{log: genLog(newRNG(seed, "regex_stream"), size)}
	// Oracle: the DFA on every tap prefix, and Go's regexp on the whole
	// log (each occurrence of this pattern ends at one position, so the
	// non-overlapping match count equals the DFA's match-end count).
	for k := 0; k <= size; k += tapPeriod {
		in.matches = append(in.matches, uint32(dfa.Run(in.log[:k])))
	}
	total := dfa.Run(in.log)
	if n := len(regexp.MustCompile(streamPattern).FindAllIndex(in.log, -1)); n != total {
		return streamInput{}, fmt.Errorf("regex oracle: DFA counts %d matches, regexp %d", total, n)
	}
	in.final = fmt.Sprintf("done consumed=%d matches=%d\n", size, total)
	in.program = prog + fmt.Sprintf(`
always @(posedge clk.val)
  if (consumed == 32'd%d) begin
    $display("done consumed=%%d matches=%%d", consumed, matches);
    $finish;
  end
`, size)
	// The tap reads the pre-edge counters on the edge that consumes byte
	// number k+1, so it fires once per k and sees exactly log[:k].
	in.tap = fmt.Sprintf(`
always @(posedge clk.val)
  if (!fifo.empty && consumed[%d:0] == 0)
    $display("tap consumed=%%d matches=%%d", consumed, matches);
`, log2(tapPeriod)-1)
	return in, nil
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// --- edit session ---------------------------------------------------------

// editScript is the edit_session workload: a seeded sequence of evals,
// each declaring one 16-bit stage and chaining it behind the previous
// one, with the $display stream a Go model of the arithmetic predicts.
type editScript struct {
	base   string   // first eval: the tick counter feeding the chain
	edits  []string // one eval each
	full   string   // base + every edit: the session's final program
	stages []stage
	// stream is the oracle's $display stream for ticksPerEdit rising clock
	// edges after every edit and maxExtra more after the last; cuts[e] is
	// how much of it has been printed when only e of those have happened.
	stream string
	cuts   [maxExtra + 1]int
	// pausePs is how long after the final program's bitstream is ready
	// the user comes back to the session: 1 to 50 virtual ms.
	pausePs uint64
}

// stage is one generated module: acc <= acc*mul + (x ^ xor).
type stage struct{ init, mul, xor uint16 }

const (
	tapEvery = 8  // every tapEvery-th edit also adds a $display
	tapCycle = 32 // a tap prints once per tapCycle ticks, each on its own residue
)

// maxExtra bounds how many clock edges the wait for the fabric may add
// after the last edit's own.
const maxExtra = 64

func genEdits(seed uint64, n int, ticksPerEdit uint64) editScript {
	r := newRNG(seed, "edit_session")
	s := editScript{base: "reg [15:0] cnt = 0;\nalways @(posedge clk.val) cnt <= cnt + 1;\n"}
	s.stages = make([]stage, n)
	for i := range s.stages {
		s.stages[i] = stage{init: uint16(r.next()), mul: uint16(r.next()) | 1, xor: uint16(r.next())}
	}
	for i, st := range s.stages {
		prev := "cnt"
		if i > 0 {
			prev = fmt.Sprintf("v%d", i-1)
		}
		e := fmt.Sprintf(`module E%[1]d(input wire clk, input wire [15:0] x, output wire [15:0] y);
  reg [15:0] acc = 16'h%04[2]x;
  always @(posedge clk) acc <= acc * 16'h%04[3]x + (x ^ 16'h%04[4]x);
  assign y = acc;
endmodule
wire [15:0] v%[1]d;
E%[1]d e%[1]d(.clk(clk.val), .x(%[5]s), .y(v%[1]d));
`, i, st.init, st.mul, st.xor, prev)
		if i%tapEvery == tapEvery-1 {
			e += fmt.Sprintf("always @(posedge clk.val) if (cnt[%d:0] == %d) $display(\"e%d %%h\", v%d);\n",
				log2(tapCycle)-1, (i/tapEvery)%tapCycle, i, i)
		}
		s.edits = append(s.edits, e)
	}
	s.full = s.base + strings.Join(s.edits, "")
	s.pausePs = uint64(1+r.intn(50)) * 1_000_000_000
	s.model(ticksPerEdit)
	return s
}

// model is the oracle: a Go model of the generated arithmetic that
// predicts the session's whole $display stream. Every register updates
// from pre-edge values and a tap prints pre-edge values; state carries
// across evals, and a new stage starts from its initial value.
func (s *editScript) model(ticksPerEdit uint64) {
	var out strings.Builder
	var cnt uint16
	acc := make([]uint16, 0, len(s.stages))
	for live := 1; live <= len(s.stages); live++ {
		acc = append(acc, s.stages[live-1].init)
		ticks := ticksPerEdit
		if live == len(s.stages) {
			ticks += maxExtra
		}
		for t := uint64(0); t < ticks; t++ {
			if t >= ticksPerEdit {
				s.cuts[t-ticksPerEdit] = out.Len()
			}
			for i := tapEvery - 1; i < live; i += tapEvery {
				if int(cnt)%tapCycle == (i/tapEvery)%tapCycle {
					fmt.Fprintf(&out, "e%d %04x\n", i, acc[i])
				}
			}
			x := cnt
			for i := range acc {
				st := s.stages[i]
				acc[i], x = acc[i]*st.mul+(x^st.xor), acc[i]
			}
			cnt++
		}
	}
	s.cuts[maxExtra] = out.Len()
	s.stream = out.String()
}

// displays is the predicted stream when extra rising clock edges have
// followed the last edit's own.
func (s *editScript) displays(extra uint64) string {
	if extra > maxExtra {
		extra = maxExtra
	}
	return s.stream[:s.cuts[extra]]
}
