package hough

// CirclesWorkers is CirclesScratch with the worker count given, for the
// external reference tests.
var CirclesWorkers = circles
