package expr

// NewReferenceEvaluator hands the reference interpreter to the external
// tests (package expr_test), which build their graphs with packages that
// import this one.
func NewReferenceEvaluator(g *Graph) evaluator { return newRefEvaluator(g) }
