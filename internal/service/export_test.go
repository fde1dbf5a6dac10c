package service

// RunQueuedSlice runs the next queued slice on the caller's goroutine — the
// slot loop's body — and reports whether one was queued. Tests that compare
// slices one at a time use it on a service they never Start.
func (s *Service) RunQueuedSlice() bool {
	select {
	case j := <-s.runq:
		s.runSlice(j)
		return true
	default:
		return false
	}
}
