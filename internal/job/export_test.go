package job

// SetOutputMissHook installs fn between a memoised output's missed lookup
// and its computation, and returns the function that removes it.
func SetOutputMissHook(fn func()) (restore func()) {
	testHookOutputMiss = fn
	return func() { testHookOutputMiss = func() {} }
}
