package plan

// MayEmitDuplicates exposes the executor's duplicate analysis to the
// executor suite, whose flow law is stated in its terms.
var MayEmitDuplicates = mayEmitDuplicates
