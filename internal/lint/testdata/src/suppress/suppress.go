// Package suppress exercises //rrlint:ignore semantics (driven by
// TestSuppressionSemantics rather than want annotations, because malformed
// directives are diagnosed at the directive's own line).
package suppress

// suppressedEOL: valid end-of-line suppression — right check, with reason.
func suppressedEOL(x, y float64) bool {
	return x == y //rrlint:ignore floateq exact golden-value comparison is intentional
}

// suppressedAbove: valid suppression on the line above the finding.
func suppressedAbove(x, y float64) bool {
	//rrlint:ignore floateq exact golden-value comparison is intentional
	return x == y
}

// wrongCheck: the directive names a different check, so the floateq
// finding survives.
func wrongCheck(x, y float64) bool {
	//rrlint:ignore mapiter suppressing the wrong check must not help
	return x == y
}

// missingReason: a reason is mandatory; the finding survives and the
// directive itself is flagged.
func missingReason(x, y float64) bool {
	//rrlint:ignore floateq
	return x == y
}

// unknownCheck: a typo'd check name is flagged and suppresses nothing.
func unknownCheck(x, y float64) bool {
	//rrlint:ignore floateqq typo in the check name
	return x == y
}
