// Vec is the data plane's allocation-free tuple representation. The
// interpreter's Tuple is a slice — building one per state access puts an
// allocation on every packet — so the compiled fast path carries index
// tuples inline, in a fixed-capacity array that lives in the instruction
// scratch or travels inside the SNAP-header. MaxVec covers the index
// arities of most catalogue policies; the 5-tuple flow key of five
// catalogue apps is wider, and callers fall back to Tuple for it.
package values

// MaxVec is the arity the inline vector supports. Index expressions wider
// than this take the interpreter's Tuple-based slow path instead.
const MaxVec = 4

// Vec is a fixed-capacity inline vector of up to MaxVec values.
// The zero Vec is empty.
type Vec struct {
	n uint8
	a [MaxVec]Value
}

// VecOf packs a tuple into a Vec; ok is false when the tuple is wider
// than MaxVec.
func VecOf(t Tuple) (Vec, bool) {
	var v Vec
	if len(t) > MaxVec {
		return v, false
	}
	v.n = uint8(copy(v.a[:], t))
	return v, true
}

// Push appends one value; ok is false (and v is unchanged) at capacity.
func (v *Vec) Push(x Value) bool {
	if int(v.n) >= MaxVec {
		return false
	}
	v.a[v.n] = x
	v.n++
	return true
}

// Len returns the number of values held.
func (v *Vec) Len() int { return int(v.n) }

// At returns the i-th value.
func (v *Vec) At(i int) Value { return v.a[i] }

// Tuple copies the vector out into a freshly allocated Tuple.
func (v *Vec) Tuple() Tuple {
	if v.n == 0 {
		return nil
	}
	return append(Tuple(nil), v.a[:v.n]...)
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
