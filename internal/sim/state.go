package sim

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cascade/internal/bits"
)

// State is a snapshot of a subprogram's variables, used to migrate
// execution between engines (get_state/set_state in the engine ABI).
// Snapshots are taken only in observable states (empty update queue), so
// pending non-blocking writes never need to be captured.
type State struct {
	Scalars map[string]*bits.Vector
	Arrays  map[string][]*bits.Vector
}

// Clone returns a deep copy of the state.
func (st *State) Clone() *State {
	c := &State{Scalars: map[string]*bits.Vector{}, Arrays: map[string][]*bits.Vector{}}
	for k, v := range st.Scalars {
		c.Scalars[k] = v.Clone()
	}
	for k, words := range st.Arrays {
		cw := make([]*bits.Vector, len(words))
		for i, w := range words {
			cw[i] = w.Clone()
		}
		c.Arrays[k] = cw
	}
	return c
}

// Words counts the 32-bit bus words the snapshot occupies: the unit the
// MMIO model bills state access in (the ABI's address-mapped access,
// Figure 10 lines 49–53). A nil state occupies none.
func (st *State) Words() (words uint64) {
	if st == nil {
		return 0
	}
	for _, v := range st.Scalars {
		words += uint64((v.Width() + 31) / 32)
	}
	for _, ws := range st.Arrays {
		for _, v := range ws {
			words += uint64((v.Width() + 31) / 32)
		}
	}
	return words
}

// Signature returns a deterministic string rendering of the state, used
// by equivalence tests to compare observable states across engines.
func (st *State) Signature() string {
	var keys []string
	for k := range st.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, st.Scalars[k])
	}
	var akeys []string
	for k := range st.Arrays {
		akeys = append(akeys, k)
	}
	sort.Strings(akeys)
	for _, k := range akeys {
		fmt.Fprintf(&sb, "%s=[", k)
		for _, w := range st.Arrays[k] {
			fmt.Fprintf(&sb, "%s,", w)
		}
		sb.WriteString("];")
	}
	return sb.String()
}

// AppendText appends the state to dst in a line-oriented text format
// ("name=width'hhex", arrays as "name[i]=..."), deterministic and
// suitable for shipping a snapshot between processes (the paper's §9
// virtual-machine-migration direction).
func (st *State) AppendText(dst []byte) []byte {
	keys := make([]string, 0, len(st.Scalars))
	for k := range st.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = append(st.Scalars[k].AppendString(append(append(dst, k...), '=')), '\n')
	}
	keys = keys[:0]
	for k := range st.Arrays {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for i, w := range st.Arrays[k] {
			dst = strconv.AppendInt(append(append(dst, k...), '['), int64(i), 10)
			dst = append(w.AppendString(append(dst, ']', '=')), '\n')
		}
	}
	return dst
}

// DecodeStateText parses the AppendText format.
func DecodeStateText(text string) (*State, error) {
	st := &State{Scalars: map[string]*bits.Vector{}, Arrays: map[string][]*bits.Vector{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("sim: malformed state line %q", line)
		}
		name, lit := line[:eq], line[eq+1:]
		v, err := bits.ParseLiteral(lit)
		if err != nil {
			return nil, fmt.Errorf("sim: state line %q: %w", line, err)
		}
		if i := strings.IndexByte(name, '['); i >= 0 && strings.HasSuffix(name, "]") {
			base := name[:i]
			var idx int
			if _, err := fmt.Sscanf(name[i:], "[%d]", &idx); err != nil {
				return nil, fmt.Errorf("sim: bad array index in %q", line)
			}
			words := st.Arrays[base]
			for len(words) <= idx {
				words = append(words, bits.New(v.Width()))
			}
			words[idx] = v
			st.Arrays[base] = words
			continue
		}
		st.Scalars[name] = v
	}
	return st, sc.Err()
}

// GetState snapshots every variable (inputs, outputs, registers, wires,
// and memories). Including non-stateful variables is harmless — they are
// recomputed after a set — and makes hand-offs between engine kinds exact.
func (s *Simulator) GetState() *State {
	st := &State{Scalars: map[string]*bits.Vector{}, Arrays: map[string][]*bits.Vector{}}
	for _, v := range s.flat.Vars {
		if v.IsArray() {
			words := make([]*bits.Vector, v.ArrayLen)
			for i, w := range s.arrays[v.Index] {
				words[i] = w.Clone()
			}
			st.Arrays[v.Name] = words
			continue
		}
		st.Scalars[v.Name] = s.vals[v.Index].Clone()
	}
	return st
}

// SetState installs a snapshot. Values are copied without firing edge
// events (a hardware-to-software hand-off must not fabricate clock
// edges); combinational logic is re-activated so derived values settle on
// the next Evaluate.
func (s *Simulator) SetState(st *State) {
	for _, v := range s.flat.Vars {
		if v.IsArray() {
			if words, ok := st.Arrays[v.Name]; ok {
				for i := 0; i < len(words) && i < v.ArrayLen; i++ {
					s.arrays[v.Index][i].CopyFrom(words[i])
				}
			}
			continue
		}
		if val, ok := st.Scalars[v.Name]; ok {
			s.vals[v.Index].CopyFrom(val)
		}
	}
	s.activateCombinational()
}

// activateCombinational marks every continuous assignment and
// level-sensitive process active.
func (s *Simulator) activateCombinational() {
	for i := range s.activeAssign {
		s.activeAssign[i] = true
		s.anyActive = true
	}
	for i, p := range s.flat.Procs {
		if p.Star || hasLevel(p) {
			s.activeProc[i] = true
			s.anyActive = true
		}
	}
}
