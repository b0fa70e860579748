package sequitur

// Test-only access for the external tests in this directory.

// NewReference returns an empty grammar that never calls extend.
func NewReference() *Grammar { return newReference() }

// Canonical renders g independent of rule slots (see canonical).
func Canonical(g *Grammar) string { return canonical(g) }

// Extended reports how many matches extend resolved.
func Extended(g *Grammar) int { return g.extended }
