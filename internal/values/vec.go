// Vec is the data plane's index tuple representation. The interpreter's
// Tuple is a slice — building one per state access puts an allocation on
// every packet — so the compiled path carries index tuples in a Vec, whose
// first MaxVec values live inline, in the instruction scratch or inside the
// SNAP-header. MaxVec covers the index arities of most catalogue policies;
// the values of a wider index (the 5-tuple flow key of five catalogue apps)
// spill to a slice, which only such an index allocates.
package values

// MaxVec is how many values a Vec holds inline.
const MaxVec = 4

// Vec is a vector of values, the first MaxVec inline and the rest in a
// spill slice. The zero Vec is empty. Nothing mutates the spill once the
// vector is filled, so copies of a Vec may share it.
type Vec struct {
	n     uint8
	a     [MaxVec]Value
	spill []Value
}

// VecOf packs a tuple into a Vec. The values past MaxVec are shared with t,
// not copied: t must not change while the Vec is in use.
func VecOf(t Tuple) Vec {
	var v Vec
	v.n = uint8(copy(v.a[:], t))
	if len(t) > MaxVec {
		v.spill = t[MaxVec:len(t):len(t)]
	}
	return v
}

// Push appends one value, spilling past MaxVec.
func (v *Vec) Push(x Value) {
	if int(v.n) < MaxVec {
		v.a[v.n] = x
		v.n++
		return
	}
	v.spill = append(v.spill, x)
}

// Len returns the number of values held.
func (v *Vec) Len() int { return int(v.n) + len(v.spill) }

// At returns the i-th value.
func (v *Vec) At(i int) Value {
	if i < MaxVec {
		return v.a[i]
	}
	return v.spill[i-MaxVec]
}

// Tuple copies the vector out into a freshly allocated Tuple.
func (v *Vec) Tuple() Tuple {
	if v.n == 0 {
		return nil
	}
	return append(append(make(Tuple, 0, v.Len()), v.a[:v.n]...), v.spill...)
}

// AppendKey appends the Tuple.Key of the vector's values to b.
func (v *Vec) AppendKey(b []byte) []byte {
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			b = append(b, '|')
		}
		b = v.At(i).AppendKey(b)
	}
	return b
}

// Canon returns the canonical representative of v's Eq-equivalence class:
// booleans collapse onto their integer coercion (False ≡ 0, True ≡ 1,
// mirroring Value.Key), every other kind is already canonical. After Canon,
// Eq(a, b) ⇔ a == b, which is what lets canonicalized values key Go maps
// directly instead of going through the Key string.
func Canon(v Value) Value {
	if v.Kind == KindBool {
		return Value{Kind: KindInt, Num: v.Num}
	}
	return v
}
