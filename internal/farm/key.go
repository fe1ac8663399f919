package farm

// validKey reports whether key is a farm cache key (64 lowercase hex
// characters). It is the one key-shape check: the sweep log, the peer
// handler and the segment scan use it too.
func validKey[K string | []byte](key K) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
