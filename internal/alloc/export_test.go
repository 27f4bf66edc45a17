package alloc

// RefSolve solves over the full, unreduced program (reference_test.go),
// for the differential gate in package alloc_test, which needs the oracle
// and program builders that package alloc's own tests cannot import.
var RefSolve = refSolve
