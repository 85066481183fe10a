// Package values defines the runtime value domain of SNAP programs.
//
// The paper (§3) defines values as "packet-related fields (IP address, TCP
// ports, MAC addresses, DNS domains) along with integers, booleans and
// vectors of such values". Value is a small, comparable struct so it can be
// used directly as a map key in state variables and match-action tables.
// Vectors (⇀v) are represented by Tuple, which canonicalizes to a Key string
// for indexing.
package values

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the value variants.
type Kind uint8

// Value kinds. KindNone is the zero Kind and marks an absent value (for
// example an unset packet field).
const (
	KindNone Kind = iota
	KindBool
	KindInt
	KindIP
	KindPrefix
	KindString
)

var kindNames = [...]string{"none", "bool", "int", "ip", "prefix", "string"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a single SNAP runtime value. It is comparable: two Values are
// equal under == iff they denote the same value. Num carries booleans (0/1),
// integers, IPv4 addresses (host order) and prefix bases; Len carries prefix
// lengths; Str carries strings (domains, user agents, payload content).
type Value struct {
	Kind Kind
	Num  int64
	Len  uint8
	Str  string
}

// None is the absent value.
var None = Value{}

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, Num: 1}
	}
	return Value{Kind: KindBool}
}

// Int returns an integer value.
func Int(n int64) Value { return Value{Kind: KindInt, Num: n} }

// String returns a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// IP returns an IPv4 address value from its 32-bit host-order representation.
func IP(addr uint32) Value { return Value{Kind: KindIP, Num: int64(addr)} }

// IPv4 returns an IPv4 address value from dotted-quad octets.
func IPv4(a, b, c, d byte) Value {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Prefix returns an IPv4 prefix value (addr/len). The base address is
// masked to the prefix length.
func Prefix(addr uint32, length uint8) Value {
	if length > 32 {
		length = 32
	}
	return Value{Kind: KindPrefix, Num: int64(addr & prefixMask(length)), Len: length}
}

func prefixMask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// True reports whether v is the boolean true.
func (v Value) True() bool { return v.Kind == KindBool && v.Num != 0 }

// IsNone reports whether v is the absent value.
func (v Value) IsNone() bool { return v.Kind == KindNone }

// AsInt returns the numeric interpretation of v used by the ++ and --
// operators: integers map to themselves, booleans to 0/1, and every other
// kind (including None) to 0. This matches the paper's counter programs,
// which increment state entries that start at their (false/absent) default.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindBool:
		return v.Num
	default:
		return 0
	}
}

// Eq is semantic value equality. Booleans and integers coerce (False ≡ 0,
// True ≡ 1): the paper's programs freely mix counter state (which starts at
// the absent/False default and is incremented into integers) with boolean
// flags, so one uniform equality is used by the evaluator, the xFDD
// interpreter and the compiler's compile-time reasoning alike.
func Eq(a, b Value) bool {
	if a == b {
		return true
	}
	if numericKind(a.Kind) && numericKind(b.Kind) {
		return a.Num == b.Num
	}
	return false
}

func numericKind(k Kind) bool { return k == KindBool || k == KindInt }

// Matches reports whether a packet-field value fv satisfies a test against
// v. For most kinds this is semantic equality (Eq); a Prefix value matches
// any IP inside the prefix (and an equal prefix literal).
func (v Value) Matches(fv Value) bool {
	if v.Kind == KindPrefix {
		switch fv.Kind {
		case KindIP:
			return uint32(fv.Num)&prefixMask(v.Len) == uint32(v.Num)
		case KindPrefix:
			return v == fv
		default:
			return false
		}
	}
	return Eq(v, fv)
}

// Subsumes reports whether every *exact* packet value matching test value w
// also matches test value v (v ⊇ w). Packet fields always hold exact
// values — the parser rejects assigning a prefix literal to a field — so
// the xFDD context may use this to infer test outcomes: a packet that
// passed dstip=10.0.6.0/24 also passes dstip=10.0.0.0/8.
func (v Value) Subsumes(w Value) bool {
	if Eq(v, w) {
		return true
	}
	if v.Kind != KindPrefix {
		return false
	}
	switch w.Kind {
	case KindIP:
		return v.Matches(w)
	case KindPrefix:
		return w.Len >= v.Len && uint32(w.Num)&prefixMask(v.Len) == uint32(v.Num)
	default:
		return false
	}
}

// Disjoint reports whether no exact packet value can match both test values
// v and w. Distinct values that do not Eq-coerce are disjoint; overlapping
// prefixes are not.
func Disjoint(v, w Value) bool {
	if Eq(v, w) {
		return false
	}
	vp, wp := v.Kind == KindPrefix, w.Kind == KindPrefix
	switch {
	case !vp && !wp:
		return !Eq(v, w)
	case vp && !wp:
		return !v.Matches(w)
	case !vp && wp:
		return !w.Matches(v)
	default:
		// Two prefixes overlap iff one contains the other.
		return !v.Subsumes(w) && !w.Subsumes(v)
	}
}

// FormatIP renders a 32-bit address in dotted-quad form.
func FormatIP(addr uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr))
}

// String renders the value in the paper's surface syntax.
func (v Value) String() string {
	switch v.Kind {
	case KindNone:
		return "none"
	case KindBool:
		if v.Num != 0 {
			return "True"
		}
		return "False"
	case KindInt:
		return strconv.FormatInt(v.Num, 10)
	case KindIP:
		return FormatIP(uint32(v.Num))
	case KindPrefix:
		return FormatIP(uint32(v.Num)) + "/" + strconv.Itoa(int(v.Len))
	case KindString:
		return strconv.Quote(v.Str)
	default:
		return fmt.Sprintf("value(%d)", v.Kind)
	}
}

// Key returns a canonical encoding of v usable as a state-variable index
// component. Values that are Eq-equal share a key (booleans encode like
// their integer coercion), and values that are not Eq-equal have distinct
// keys.
func (v Value) Key() string {
	var buf [32]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends v's Key to b.
func (v Value) AppendKey(b []byte) []byte {
	switch v.Kind {
	case KindString:
		// Quote so multi-component tuple keys cannot collide on strings
		// containing the separator.
		return strconv.AppendQuote(append(b, "s:"...), v.Str)
	case KindPrefix:
		b = strconv.AppendInt(append(b, "p:"...), v.Num, 16)
		return strconv.AppendInt(append(b, '/'), int64(v.Len), 10)
	case KindBool, KindInt:
		// Booleans and integers are Eq-coercible, so they share a key
		// space (False ≡ 0, True ≡ 1).
		return strconv.AppendInt(append(b, "i:"...), v.Num, 16)
	case KindIP:
		return strconv.AppendInt(append(b, "a:"...), v.Num, 16)
	default:
		return append(b, "n:"...)
	}
}

// Hash returns a 64-bit hash of v that Eq-equal values share, like Key but
// without building a string. It reads only what Key encodes, so a prefix
// hashes by its base address and length.
func (v Value) Hash() uint64 {
	var h uint64
	switch v.Kind {
	case KindString:
		h = 14695981039346656037 // FNV-1a
		for i := 0; i < len(v.Str); i++ {
			h = (h ^ uint64(v.Str[i])) * 1099511628211
		}
	case KindPrefix:
		h = 4<<40 | uint64(v.Len)<<32 | uint64(uint32(v.Num))
	case KindBool, KindInt:
		h = uint64(v.Num) ^ 2<<56
	case KindIP:
		h = 3<<40 | uint64(uint32(v.Num))
	}
	// splitmix64's finaliser spreads every input bit over the result.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// Tuple is a vector of values (⇀v in the paper), used as a composite state
// index such as orphan[dstip][dns.rdata].
type Tuple []Value

// Key returns a canonical encoding of the tuple. Distinct tuples have
// distinct keys: the components' keys joined by "|".
func (t Tuple) Key() string {
	var buf [128]byte
	v := VecOf(t)
	return string(v.AppendKey(buf[:0]))
}

// String renders the tuple as bracketed index components.
func (t Tuple) String() string {
	var b strings.Builder
	for _, v := range t {
		fmt.Fprintf(&b, "[%s]", v)
	}
	return b.String()
}

// ParseIPv4 parses a dotted-quad IPv4 address, returning ok=false on
// malformed input.
func ParseIPv4(s string) (uint32, bool) {
	var addr uint32
	part, digits, dots := 0, 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			part = part*10 + int(c-'0')
			digits++
			if part > 255 || digits > 3 {
				return 0, false
			}
		case c == '.':
			if digits == 0 || dots == 3 {
				return 0, false
			}
			addr = addr<<8 | uint32(part)
			part, digits = 0, 0
			dots++
		default:
			return 0, false
		}
	}
	if dots != 3 || digits == 0 {
		return 0, false
	}
	return addr<<8 | uint32(part), true
}
