package dq

// ProfileReference hands the reference profile to the external test
// package, which imports core to drive the shared-dictionary ingest path.
var ProfileReference = profileReference
