// Package fixture exercises rule 2 of the ctscalar analyzer, loaded as
// a package outside internal/ec: secret scalars (private-key fields
// and RandomScalar results, followed through assignments) must not
// reach the variable-time multiplications; public scalars may.
package fixture

import "math/big"

type Point struct{ X, Y *big.Int }

type Curve struct{ N *big.Int }

func (c *Curve) ScalarMult(p Point, k *big.Int) Point        { return p }
func (c *Curve) ScalarBaseMult(k *big.Int) Point             { return Point{} }
func (c *Curve) CombinedMult(q Point, u1, u2 *big.Int) Point { return q }
func (c *Curve) RandomScalar() (*big.Int, error)             { return big.NewInt(7), nil }
func (c *Curve) HashToInt(b []byte) *big.Int                 { return new(big.Int).SetBytes(b) }

type Party struct {
	Curve *Curve
	Priv  *big.Int
	CAPub Point
}

func staticDH(p *Party, q Point) Point {
	return p.Curve.ScalarMult(q, p.Priv) // want "ctscalar: secret scalar passed to variable-time ScalarMult"
}

func ephemeral(c *Curve) (Point, error) {
	x, err := c.RandomScalar()
	if err != nil {
		return Point{}, err
	}
	xr := new(big.Int).Mod(x, c.N)
	return c.ScalarBaseMult(xr), nil // want "ctscalar: secret scalar passed to variable-time ScalarBaseMult"
}

func combined(p *Party, q Point, e *big.Int) Point {
	ke := new(big.Int).Mul(p.Priv, e)
	return p.Curve.CombinedMult(q, e, ke) // want "ctscalar: secret scalar passed to variable-time CombinedMult"
}

// extract multiplies by a certificate hash: public, not flagged.
func extract(c *Curve, pu Point, cert []byte) Point {
	e := c.HashToInt(cert)
	return c.ScalarMult(pu, e)
}

func warm(c *Curve) Point { return c.ScalarBaseMult(big.NewInt(1)) }

func attackModel(p *Party) Point {
	//detlint:allow ctscalar fixture: an attack model computes with a stolen key on purpose
	return p.Curve.ScalarMult(p.CAPub, p.Priv)
}
