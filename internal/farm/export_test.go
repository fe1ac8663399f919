package farm

// KeyMemoEntries and KeyMemoLen open the spec → key memo's bound and its
// occupancy across both generations (an entry promoted from the old one
// counts twice until that generation is dropped) to the external tests.
const KeyMemoEntries = keyMemoEntries

func (f *Farm) KeyMemoLen() int {
	f.keys.mu.Lock()
	defer f.keys.mu.Unlock()
	return len(f.keys.cur) + len(f.keys.old)
}
