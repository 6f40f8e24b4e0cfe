package stdlib

// HeldChunks returns how many pushed chunks the stream still keeps
// reachable: those the device has not taken all of.
func (s *Stream) HeldChunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.in)
}
