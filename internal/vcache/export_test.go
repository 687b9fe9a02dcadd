package vcache

// Hooks for vcache_test, an external package because its networks run
// stub's wire codec and stub imports this package.

// PartitionOf names the partition that owns key.
func (c *Client) PartitionOf(key string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Lookup(objectOf(key))
}
