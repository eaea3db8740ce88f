// Fixture for the abortcause pass: a self-contained miniature of the
// internal/core abort taxonomy (PR 5). Every ErrAborted flows through
// the single decision point (abortCause → CountAbort → abortInternal)
// with a typed, meaningful reason.
package abortcause

// AbortReason mirrors metrics.AbortReason (matched by type name).
type AbortReason int

const (
	AbortConflict AbortReason = iota
	AbortFault
	AbortOther
)

// CountAbort mirrors the metrics taxonomy counter (matched by name).
func CountAbort(kind AbortReason) {}

type abortError struct {
	kind   AbortReason
	reason string
}

func (e *abortError) Error() string { return e.reason }

type Tx struct{ locks int }

// abortCause is the single decision point: the one legal CountAbort
// site.
func (tx *Tx) abortCause(kind AbortReason, reason string) error {
	CountAbort(kind)
	return tx.abortInternal(kind, reason)
}

// abort is the public entry; the typed kind flows through untouched.
func (tx *Tx) abort(kind AbortReason, reason string) error {
	return tx.abortCause(kind, reason)
}

// abortInternal is the one legal &abortError constructor.
func (tx *Tx) abortInternal(kind AbortReason, reason string) error {
	return &abortError{kind, reason}
}

// goodAbort classifies its cause.
func (tx *Tx) goodAbort() error {
	return tx.abort(AbortConflict, "lock conflict")
}

// rogueAbort constructs the abort error outside abortInternal, skipping
// the taxonomy counter and the rollback/unlock sequence.
func (tx *Tx) rogueAbort() error {
	return &abortError{AbortFault, "rogue"} // want "constructed outside abortInternal"
}

// doubleCount bumps the taxonomy counter outside the decision point.
func (tx *Tx) doubleCount(kind AbortReason) {
	CountAbort(kind) // want "outside abortCause"
}

// legacy abort takes an untyped reason — the shape the taxonomy
// refactor removed.
type legacy struct{}

func (legacy) abort(kind int, reason string) error { return nil }

func useLegacy(l legacy) error {
	return l.abort(7, "legacy") // want "not a typed metrics.AbortReason"
}

// lazyAbort reaches for the catch-all bucket without justification.
func (tx *Tx) lazyAbort() error {
	return tx.abort(AbortOther, "dunno") // want "AbortOther used without"
}

// sanctionedOther carries the named directive with its justification.
func (tx *Tx) sanctionedOther() error {
	//pandora:abortother user-requested abort: no protocol cause to classify
	return tx.abort(AbortOther, "user abort")
}
