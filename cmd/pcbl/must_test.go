package main

// Shorthands for label builds and queries a test expects to succeed:
// each panics on an error, which fails the test from any goroutine.

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}
