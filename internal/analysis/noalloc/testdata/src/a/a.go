package a

import "fmt"

type K struct {
	on  bool
	buf []byte
}

func (k *K) TraceOn() bool { return k.on }

func sink(v interface{})      {}
func sinkv(vs ...interface{}) {}

//reesift:noalloc
func (k *K) Hot(x int, b []byte) int {
	k.buf = append(k.buf, b...) // amortized growth: allowed
	if k.on {
		x++
	}
	if k.TraceOn() {
		fmt.Println("traced-only code is off the contract", x)
	}
	fmt.Println(x) // want `fmt.Println allocates`
	s := "a" + "b" // constant-folded: allowed
	_ = s
	name := string(b) // want `string conversion of a slice allocates`
	_ = name
	var i interface{} = x // want `interface boxing: declaration of int`
	i = x                 // want `interface boxing: assignment of int`
	_ = i
	f := func() int { return x } // want `closure literal`
	return f()
}

//reesift:noalloc
func concat(prefix string, n int) string {
	if n > 0 {
		return prefix + "suffix" // want `string concatenation allocates`
	}
	return prefix
}

//reesift:noalloc
func boxing(x int, p *int) {
	sink(x)     // want `interface boxing: int argument`
	sink(p)     // pointers fit the interface word: allowed
	sink(nil)   // nil is nil: allowed
	sinkv(1, 2) // want `interface boxing: int argument` `interface boxing: int argument`
	var pre []interface{}
	sinkv(pre...) // passing the slice through: allowed
}

//reesift:noalloc
func returnsBoxed(x int) interface{} {
	return x // want `interface boxing: returning int`
}

//reesift:noalloc
func returnsPointer(p *int) interface{} {
	return p // pointer-shaped: allowed
}

//reesift:noalloc
func nested() {
	outer := func() { // want `closure literal`
		inner := func() {} // want `closure literal`
		_ = inner
		_ = fmt.Sprint(1) // want `fmt.Sprint allocates`
	}
	outer()
}

//reesift:noalloc
func closureReturnChecksOwnSignature(x int) {
	f := func(v int) interface{} { // want `closure literal`
		return v // want `interface boxing: returning int`
	}
	_ = f
}

// Table and Pair have generic receivers: the contract applies to their
// methods, and Annotated names them without type parameters.
type Table[R any] struct{ recs []R }

//reesift:noalloc
func (t *Table[R]) Len() int {
	fmt.Println(len(t.recs)) // want `fmt.Println allocates`
	return len(t.recs)
}

type Pair[K comparable, V any] struct {
	k K
	v V
}

//reesift:noalloc
func (p Pair[K, V]) Key() K { return p.k }

// unannotated is outside the contract: nothing is flagged.
func unannotated(x int) string {
	return fmt.Sprint(x, "ok")
}
