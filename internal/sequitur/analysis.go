package sequitur

// Whole-grammar analyses for internal/hds: rule occurrence frequencies and
// expansion lengths (stream extraction weights rules by how often they
// recur), and capped rule expansion (stream materialisation).

// RuleFreq computes how many times each rule's expansion occurs in the full
// input: the start rule occurs once, and every reference inside a rule
// occurring f times contributes f to the referenced rule. The counts live
// in a slice indexed by rule slot (Rule.Number) rather than a map; entries
// of free slots stay 0.
func RuleFreq(g *Grammar) []int {
	// Topological order: parents before children.
	order := make([]int32, 0, g.NumRules())
	state := make([]uint8, len(g.rules)) // 0 unvisited, 1 visiting, 2 done
	var dfs func(num int32)
	dfs = func(num int32) {
		state[num] = 1
		for s := g.firstOf(num); !g.syms[s].guard; s = g.syms[s].next {
			if v := g.syms[s].value; v < 0 && state[ruleOf(v)] == 0 {
				dfs(ruleOf(v))
			}
		}
		state[num] = 2
		order = append(order, num) // post-order: children first
	}
	dfs(0)
	freq := make([]int, len(g.rules))
	freq[0] = 1
	// Walk parents before children: reverse post-order.
	for i := len(order) - 1; i >= 0; i-- {
		num := order[i]
		f := freq[num]
		if f == 0 {
			continue
		}
		for s := g.firstOf(num); !g.syms[s].guard; s = g.syms[s].next {
			if v := g.syms[s].value; v < 0 {
				freq[ruleOf(v)] += f
			}
		}
	}
	return freq
}

// RuleLens computes each rule's terminal expansion length, indexed by rule
// slot (-1 marks free slots, never queried).
func RuleLens(g *Grammar) []int {
	lens := make([]int, len(g.rules))
	for i := range lens {
		lens[i] = -1
	}
	var calc func(num int32) int
	calc = func(num int32) int {
		if l := lens[num]; l >= 0 {
			return l
		}
		lens[num] = 0 // cycle guard; grammars are acyclic
		total := 0
		for s := g.firstOf(num); !g.syms[s].guard; s = g.syms[s].next {
			if v := g.syms[s].value; v < 0 {
				total += calc(ruleOf(v))
			} else {
				total++
			}
		}
		lens[num] = total
		return total
	}
	for num := range g.rules {
		if g.rules[num].live {
			calc(int32(num))
		}
	}
	return lens
}

// ExpandRulePrefix materialises the first max terminals of a rule: its
// whole expansion when that is no longer than max.
func ExpandRulePrefix(g *Grammar, num int, max int) []int64 {
	out := make([]int64, 0, max)
	var walk func(num int32) bool
	walk = func(num int32) bool {
		for s := g.firstOf(num); !g.syms[s].guard; s = g.syms[s].next {
			if len(out) >= max {
				return false
			}
			if v := g.syms[s].value; v < 0 {
				if !walk(ruleOf(v)) {
					return false
				}
			} else {
				out = append(out, v)
			}
		}
		return true
	}
	walk(int32(num))
	return out
}
