package supervisor

// Hooks for supervisor_test, an external package because its networks
// run stub's wire codec and stub imports this package.

// ResultCacheHardFactor is resultCacheHardFactor.
const ResultCacheHardFactor = resultCacheHardFactor

// CachedResults reports how many command results s holds.
func (s *Supervisor) CachedResults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
