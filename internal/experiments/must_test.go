package experiments

// Shorthands for label builds and queries a test expects to succeed:
// each panics on an error, which fails the test from any goroutine.

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
