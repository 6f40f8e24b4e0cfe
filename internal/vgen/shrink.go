package vgen

import (
	"encoding/json"
	"strings"
)

// Shrink returns a smaller session on which fails still holds: it greedily
// drops steps, ticks, lines (a module, an always-block or an arm goes with
// everything under it; an instance with every operand that reads it) and
// operands, keeping a cut whenever the result still fails, until no single
// cut does. A cut may leave a session that no longer parses or elaborates;
// fails is expected to say false of one. The argument is not modified.
func Shrink(s Script, fails func(Script) bool) Script {
	for again := true; again; {
		again = false
		for n := 0; ; {
			c, ok := cut(s, n)
			if !ok {
				break
			}
			if fails(c) {
				s, again = c, true // the cuts after it moved up one
			} else {
				n++
			}
		}
	}
	return s
}

// cut applies the n-th cut of s, biggest first, to a copy; ok is false when
// s has no such cut.
func cut(s Script, n int) (c Script, ok bool) {
	c = clone(s)
	hit := func() bool { n--; return n == -1 }
	for i := range c.Steps {
		if hit() {
			c.Steps = append(c.Steps[:i], c.Steps[i+1:]...)
			return c, true
		}
		if st := &c.Steps[i]; st.Ticks > 1 && hit() {
			st.Ticks /= 2
			return c, true
		}
		if cutNodes(c, &c.Steps[i].Frag, hit) {
			return c, true
		}
	}
	return c, false
}

func cutNodes(s Script, list *[]*Node, hit func() bool) bool {
	for i, nd := range *list {
		if hit() {
			*list = append((*list)[:i], (*list)[i+1:]...)
			if nd.Inst != "" {
				zeroReads(s, nd.Inst)
			}
			return true
		}
		for j := range nd.Exprs {
			if cutExpr(&nd.Exprs[j], hit) {
				return true
			}
		}
		if cutNodes(s, &nd.Kids, hit) {
			return true
		}
	}
	return false
}

// cutExpr replaces e by 0 or by one of its operands, or cuts inside one.
func cutExpr(e **Expr, hit func() bool) bool {
	if (*e).F != "0" && hit() {
		*e = leaf("0")
		return true
	}
	for _, a := range (*e).Args {
		if hit() {
			*e = a
			return true
		}
	}
	for i := range (*e).Args {
		if cutExpr(&(*e).Args[i], hit) {
			return true
		}
	}
	return false
}

// zeroReads replaces every operand of s that reads instance name (its
// output wire name_o, or name.x) by 0.
func zeroReads(s Script, name string) {
	var expr func(e **Expr)
	expr = func(e **Expr) {
		if strings.Contains((*e).F, name+".") || strings.Contains((*e).F, name+"_o") {
			*e = leaf("0")
		}
		for i := range (*e).Args {
			expr(&(*e).Args[i])
		}
	}
	var nodes func(list []*Node)
	nodes = func(list []*Node) {
		for _, nd := range list {
			for i := range nd.Exprs {
				expr(&nd.Exprs[i])
			}
			nodes(nd.Kids)
		}
	}
	for _, st := range s.Steps {
		nodes(st.Frag)
	}
}

// clone copies s down to its expressions (a Script is a tree of exported
// fields, so a round trip through JSON is a deep copy).
func clone(s Script) (c Script) {
	text, err := json.Marshal(s)
	if err == nil {
		err = json.Unmarshal(text, &c)
	}
	if err != nil {
		panic(err) // strings, ints and slices of them cannot fail to marshal
	}
	return c
}
