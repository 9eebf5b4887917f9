package a

type Record struct{ Op string }

type Sink struct{ on bool }

func (s *Sink) Enabled() bool { return s.on }
func (s *Sink) Emit(r Record) {}

type Kernel struct {
	on   bool
	sink *Sink
}

func (k *Kernel) TraceOn() bool { return k.on }
func (k *Kernel) Emit(r Record) {}

// Logf is not an emitter: only Emit call sites need a guard.
func (k *Kernel) Logf(format string, args ...any) {}

func directGuard(k *Kernel) {
	if k.TraceOn() {
		k.Emit(Record{Op: "ok"})
	}
	if k.sink != nil && k.sink.Enabled() {
		k.sink.Emit(Record{Op: "ok"})
	}
}

func earlyReturnGuard(k *Kernel) {
	if !k.TraceOn() {
		return
	}
	k.Emit(Record{Op: "ok"})
}

func earlyContinueGuard(k *Kernel) {
	for i := 0; i < 3; i++ {
		if !k.TraceOn() {
			continue
		}
		k.Emit(Record{Op: "ok"})
	}
}

func caseGuard(k *Kernel, v int) {
	switch v {
	case 1:
		if !k.TraceOn() {
			return
		}
		k.Emit(Record{Op: "ok"})
	case 2:
		k.Emit(Record{Op: "bad"}) // want `unguarded Emit call`
	}
}

func unguarded(k *Kernel) {
	k.Emit(Record{Op: "bad"}) // want `unguarded Emit call`
	k.Logf("not an emitter %d", 7)
}

func multiLineUnguarded(k *Kernel) {
	k.Emit(Record{ // want `unguarded Emit call`
		Op: "bad",
	})
}

// distantGuard has an enabled check, but in an unrelated block: the
// retired line-window scan accepted this, the AST check must not.
func distantGuard(k *Kernel) {
	if k.TraceOn() {
		_ = 1
	}
	k.Emit(Record{Op: "bad"}) // want `unguarded Emit call`
}

// negatedGuard only emits when tracing is OFF — flagged.
func negatedGuard(k *Kernel) {
	if !k.TraceOn() {
		k.Emit(Record{Op: "bad"}) // want `unguarded Emit call`
	}
}

// elseOfGuard: the else branch runs when the guard failed.
func elseOfGuard(k *Kernel) {
	if k.TraceOn() {
		_ = 1
	} else {
		k.Emit(Record{Op: "bad"}) // want `unguarded Emit call`
	}
}

// closureEscapesGuard: the guard dominates the closure *literal*, not
// the closure's execution.
func closureEscapesGuard(k *Kernel) func() {
	var f func()
	if k.TraceOn() {
		f = func() {
			k.Emit(Record{Op: "bad"}) // want `unguarded Emit call`
		}
	}
	return f
}

func closureWithOwnGuard(k *Kernel) func() {
	return func() {
		if !k.TraceOn() {
			return
		}
		k.Emit(Record{Op: "ok"})
	}
}

// orGuard does not guarantee the guard held.
func orGuard(k *Kernel, force bool) {
	if force || k.TraceOn() {
		k.Emit(Record{Op: "bad"}) // want `unguarded Emit call`
	}
}

// A comment mentioning k.Emit( is not a call site.
func commentOnly() {}
