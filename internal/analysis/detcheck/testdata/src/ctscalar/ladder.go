// Package fixture exercises rule 1 of the ctscalar analyzer, loaded as
// internal/ec: in functions reachable from the constant-time roots
// ctScalarMult and ctBaseMult, branches and indexes on secret-derived
// values are flagged; public loop positions and lengths are not.
package fixture

type element [4]uint64

type point struct{ x, y, z element }

// ctScalarMult is a root: every parameter is secret.
func ctScalarMult(r *point, table *[16]point, k []byte) {
	for i, b := range k {
		if i != 0 { // the position is public
			double(r)
		}
		if b&1 == 1 { // want "ctscalar: if condition depends on a secret scalar"
			add(r, &table[1])
		}
		*r = table[b>>4] // want "ctscalar: index depends on a secret scalar"
		selectMasked(r, table, b&0xf)
	}
	_ = k[len(k)-1] // lengths are public
}

// selectMasked is clean: a masked move from every entry.
func selectMasked(p *point, table *[16]point, n byte) {
	for i := range table {
		move := eq(uint64(i), uint64(n))
		mask := -move
		for j := range p.x {
			p.x[j] ^= mask & (p.x[j] ^ table[i].x[j])
		}
	}
}

func eq(a, b uint64) uint64 {
	d := a ^ b
	return 1 ^ ((d | -d) >> 63)
}

func double(p *point) { add(p, p) }

// add receives a secret point: its branch is flagged even though it
// is two calls away from the root.
func add(p, q *point) {
	switch q.z[0] { // want "ctscalar: switch tag depends on a secret scalar"
	case 0:
		return
	}
	for p.x[0] != 0 { // want "ctscalar: loop condition depends on a secret scalar"
		p.x[0] >>= 1
	}
	p.x[0] += q.x[0]
}

// ctBaseMult is a root whose one branch carries a documented escape.
func ctBaseMult(r *point, k []byte) {
	//detlint:allow ctscalar fixture: a documented exception suppresses the finding on the next line
	if k[0] == 0 {
		r.z = element{}
	}
}

// cold is unreachable from every root: branching on its input is not
// this analyzer's business.
func cold(k []byte) bool { return k[0] == 0 || len(k) > 3 && k[k[0]] == 1 }
