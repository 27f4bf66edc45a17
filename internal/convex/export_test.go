package convex

// The reference ladder, for the differential tests in package convex_test
// (which, unlike this package's own tests, can import the allocator and
// the scheduler).
var RefMinimizeAnnealed = refMinimizeAnnealed
