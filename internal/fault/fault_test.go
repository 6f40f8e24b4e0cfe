package fault

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestDeterministicSchedule: two injectors with the same config agree on
// every decision, regardless of how sites interleave between them.
func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, CompileTransient: 0.3, CompilePermanent: 0.1, BusError: 0.2, RegionFault: 0.15}
	a, b := New(cfg), New(cfg)
	sites := []string{"main", "main.r", "main.g1"}
	var seqA, seqB []string
	record := func(seq *[]string, err error) {
		if err == nil {
			*seq = append(*seq, "ok")
		} else {
			*seq = append(*seq, err.Error())
		}
	}
	for i := 0; i < 200; i++ {
		s := sites[i%len(sites)]
		record(&seqA, a.Compile(s))
		record(&seqA, a.Bus(s))
		record(&seqA, a.Region(s))
	}
	for i := 0; i < 200; i++ {
		s := sites[i%len(sites)]
		record(&seqB, b.Compile(s))
		record(&seqB, b.Bus(s))
		record(&seqB, b.Region(s))
	}
	if len(seqA) != len(seqB) {
		t.Fatalf("sequence lengths diverged: %d vs %d", len(seqA), len(seqB))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("decision %d diverged: %q vs %q", i, seqA[i], seqB[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Injected == 0 {
		t.Fatal("no faults injected at these probabilities; schedule is vacuous")
	}
}

// TestSiteIndependence: the timeline of one site is unaffected by how
// many operations other sites perform (global interleaving must not
// matter — that is what makes concurrent runs replayable).
func TestSiteIndependence(t *testing.T) {
	cfg := Config{Seed: 7, BusError: 0.25}
	a, b := New(cfg), New(cfg)
	var seqA, seqB []bool
	for i := 0; i < 100; i++ {
		seqA = append(seqA, a.Bus("main") != nil)
	}
	for i := 0; i < 100; i++ {
		_ = b.Bus("other") // noise on another site
		seqB = append(seqB, b.Bus("main") != nil)
		_ = b.Compile("main") // different op, same site: separate timeline
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("site timeline perturbed by unrelated traffic at trial %d", i)
		}
	}
}

// TestScriptedMode: probability 1 with a cap injects exactly the first
// n trials per site, then none — the contract retry loops depend on.
func TestScriptedMode(t *testing.T) {
	in := New(Config{Seed: 1, CompileTransient: 1, MaxCompileFaults: 2, BusError: 1, MaxBusFaults: 1})
	for trial := 1; trial <= 5; trial++ {
		err := in.Compile("main")
		if trial <= 2 && err == nil {
			t.Fatalf("compile trial %d: expected fault", trial)
		}
		if trial > 2 && err != nil {
			t.Fatalf("compile trial %d: cap not honored: %v", trial, err)
		}
		if err != nil && !IsTransient(err) {
			t.Fatalf("compile trial %d: expected transient, got %v", trial, err)
		}
	}
	if err := in.Bus("main"); err == nil {
		t.Fatal("first bus trial must fault")
	}
	for trial := 0; trial < 10; trial++ {
		if err := in.Bus("main"); err != nil {
			t.Fatalf("bus cap not honored: %v", err)
		}
	}
	st := in.Stats()
	if st.Compile != 2 || st.Bus != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// TestClassification: permanent compile faults classify as such, and the
// errors survive wrapping.
func TestClassification(t *testing.T) {
	in := New(Config{Seed: 3, CompilePermanent: 1, MaxCompileFaults: 1})
	err := in.Compile("main")
	if err == nil {
		t.Fatal("expected a fault")
	}
	if IsTransient(err) {
		t.Fatalf("permanent fault classified transient: %v", err)
	}
	wrapped := fmt.Errorf("toolchain: %w", err)
	if !IsFault(wrapped) {
		t.Fatal("IsFault must see through wrapping")
	}
	var fe *Error
	if !errors.As(wrapped, &fe) || fe.Op != OpCompile || fe.Site != "main" {
		t.Fatalf("wrapped fault lost identity: %+v", fe)
	}
}

// TestNilInjector: a nil injector is a no-op everywhere.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if in.Compile("x") != nil || in.Bus("x") != nil || in.Region("x") != nil {
		t.Fatal("nil injector injected a fault")
	}
	if in.Stats() != (Stats{}) || in.Seed() != 0 {
		t.Fatal("nil injector reported state")
	}
}

// TestConcurrentUse: hammering one injector from many goroutines is
// race-free and conserves counters (run under -race).
func TestConcurrentUse(t *testing.T) {
	in := New(Config{Seed: 9, CompileTransient: 0.5, BusError: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := fmt.Sprintf("site%d", g)
			for i := 0; i < 500; i++ {
				_ = in.Compile(s)
				_ = in.Bus(s)
			}
		}(g)
	}
	wg.Wait()
	st := in.Stats()
	if st.Checks != 8*500*2 {
		t.Fatalf("lost trials: %+v", st)
	}
	if st.Injected != st.Transient+st.Permanent || st.Injected != st.Compile+st.Bus+st.Region {
		t.Fatalf("counter partition broken: %+v", st)
	}
}

// TestOutagesProperty checks every plan Config.Outages makes over 10 000
// seeds, in the shapes the tree plans (daemon kill/restart cycles, farm
// shard outages) and the tight ones around them: deterministic, sorted,
// at least one free ordinal between windows, inside [1, horizon), every
// target in range and every length in [minLen, maxLen], and exactly n
// windows whenever the horizon has room for them.
func TestOutagesProperty(t *testing.T) {
	shapes := []struct {
		targets, n int
		horizon    uint64
	}{{1, 2, 100}, {2, 2, 4}, {3, 2, 4}, {4, 3, 64}, {3, 4, 100}}
	lens := [][2]uint64{{1, 2}, {1, 4}, {2, 5}}
	for seed := uint64(0); seed < 10_000; seed++ {
		c := Config{Seed: seed}
		for _, sh := range shapes {
			for _, l := range lens {
				plan := c.Outages("farm", sh.targets, sh.n, sh.horizon, l[0], l[1])
				if again := c.Outages("farm", sh.targets, sh.n, sh.horizon, l[0], l[1]); !reflect.DeepEqual(plan, again) {
					t.Fatalf("seed %d %+v: not deterministic: %v then %v", seed, sh, plan, again)
				}
				if fits := sh.horizon >= uint64(sh.n)*(l[0]+2); fits && len(plan) != sh.n || len(plan) > sh.n {
					t.Fatalf("seed %d %+v lengths %v: %d windows, want %d: %v", seed, sh, l, len(plan), sh.n, plan)
				}
				prev := uint64(0)
				for i, w := range plan {
					if w.From < 1 || w.To >= sh.horizon || w.Target < 0 || w.Target >= sh.targets {
						t.Fatalf("seed %d %+v: window %d out of range: %v", seed, sh, i, plan)
					}
					if i > 0 && w.From <= prev {
						t.Fatalf("seed %d %+v: window %d not separated from its predecessor: %v", seed, sh, i, plan)
					}
					if d := w.To - w.From; d < l[0] || d > l[1] {
						t.Fatalf("seed %d %+v: window %d length %d outside %v: %v", seed, sh, i, d, l, plan)
					}
					prev = w.To
				}
			}
		}
	}
}

// TestOutagesSeed2NeverOverlaps is the case that showed the farm's
// former generator overlapping: for seed 2 over two shards and four
// routes it planned [{0 1 3} {1 2 3}], both shards down at route 2 —
// more than the farm's two replicas can survive.
func TestOutagesSeed2NeverOverlaps(t *testing.T) {
	for _, horizon := range []uint64{4, 6, 7, 8} {
		down := map[uint64]int{}
		for _, w := range (Config{Seed: 2}).Outages("farm", 2, 2, horizon, 1, 2) {
			for r := w.From; r < w.To; r++ {
				if down[r]++; down[r] > 1 {
					t.Fatalf("horizon %d: two shards down at route %d", horizon, r)
				}
			}
		}
	}
}

// TestOutagesSitesAndSeeds: the seed moves the windows, and the site
// salts which target each takes down.
func TestOutagesSitesAndSeeds(t *testing.T) {
	a := Config{Seed: 1}.Outages("farm", 4, 3, 200, 1, 4)
	if b := (Config{Seed: 2}).Outages("farm", 4, 3, 200, 1, 4); reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 planned identical outages: %v", a)
	}
	differ := false
	for seed := uint64(0); seed < 16 && !differ; seed++ {
		c := Config{Seed: seed}
		differ = !reflect.DeepEqual(c.Outages("farm", 4, 3, 200, 1, 4), c.Outages("other", 4, 3, 200, 1, 4))
	}
	if !differ {
		t.Fatal("the site never changed which target goes down")
	}
	if (Config{Seed: 7}).Outages("daemon", 1, 0, 100, 1, 4) != nil || (Config{}).Outages("farm", 0, 2, 100, 1, 4) != nil {
		t.Fatal("planned outages with no windows or no targets")
	}
}

// TestScheduleDeterministic: the same config plans the same outages and
// makes the same injector decisions every time — the property the
// invariant-14 comparison harness rests on.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, NetDrop: 0.5, MaxNetFaults: 4}
	a, b := cfg.Outages("daemon", 1, 3, 200, 2, 5), cfg.Outages("daemon", 1, 3, 200, 2, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different plans:\n%v\n%v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("planned %d outages, want 3: %v", len(a), a)
	}
	ia, ib := New(cfg), New(cfg)
	for i := 0; i < 16; i++ {
		if ea, eb := ia.Net("site"), ib.Net("site"); (ea == nil) != (eb == nil) {
			t.Fatalf("net decision %d diverged: %v vs %v", i, ea, eb)
		}
	}
}

// TestScheduleSeedsDiffer: different seeds move the daemon's outages
// (splitmix64 actually consumes the seed).
func TestScheduleSeedsDiffer(t *testing.T) {
	a := Config{Seed: 1}.Outages("daemon", 1, 3, 200, 2, 5)
	b := Config{Seed: 2}.Outages("daemon", 1, 3, 200, 2, 5)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 planned identical outages: %v", a)
	}
}

// TestScheduleBounded pins the structural guarantees of a daemon's
// kill/restart plan: outages are ordered, non-overlapping, inside the
// horizon, and each downtime respects [minLen, maxLen].
func TestScheduleBounded(t *testing.T) {
	const steps, minDown, maxDown = 120, 2, 6
	for seed := uint64(0); seed < 50; seed++ {
		plan := Config{Seed: seed}.Outages("daemon", 1, 4, steps, minDown, maxDown)
		if len(plan) != 4 {
			t.Fatalf("seed %d planned %d outages, want 4: %v", seed, len(plan), plan)
		}
		var prevRestart uint64
		for i, o := range plan {
			if o.From == 0 || o.To >= steps || o.Target != 0 {
				t.Fatalf("seed %d outage %d escapes horizon: %v", seed, i, plan)
			}
			if o.From <= prevRestart {
				t.Fatalf("seed %d outage %d overlaps predecessor: %v", seed, i, plan)
			}
			if down := o.To - o.From; down < minDown || down > maxDown {
				t.Fatalf("seed %d outage %d downtime %d outside [%d,%d]: %v",
					seed, i, down, minDown, maxDown, plan)
			}
			prevRestart = o.To
		}
	}
}

// TestScheduleZeroConfig: nothing planned, nothing injected — a fault
// config you never filled in is a fault-free run.
func TestScheduleZeroConfig(t *testing.T) {
	if plan := (Config{}).Outages("daemon", 1, 0, 100, 2, 5); len(plan) != 0 {
		t.Fatalf("zero config planned outages: %v", plan)
	}
	in := New(Config{})
	for i := 0; i < 8; i++ {
		if err := in.Net("site"); err != nil {
			t.Fatalf("zero config injected a fault: %v", err)
		}
	}
	if st := in.Stats(); st.Injected != 0 {
		t.Fatalf("zero config counted injections: %+v", st)
	}
}
