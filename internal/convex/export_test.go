package convex

// The reference minimizer, for the differential tests in package
// convex_test (which, unlike this package's own tests, can import the
// allocator and the scheduler).
var (
	RefMinimize         = refMinimize
	RefMinimizeAnnealed = refMinimizeAnnealed
)
