package smp

import "fmt"

// Cache is a set-associative LRU cache model used for the paper's announced
// future-work extension: exposing cache-miss counts through the observation
// interface (§6, "for instance, cache misses"). Components report the
// synthetic address ranges they touch; the model tracks line residency and
// counts hits and misses.
//
// Addresses are synthetic: each allocation in the platform layer receives a
// distinct address range, so streaming over a message buffer produces the
// same compulsory/capacity miss pattern a real copy would.
type Cache struct {
	lineSize int
	sets     int
	ways     int
	// tags holds each set's LRU list, most recent first (0 = invalid). It
	// is allocated on the first touch: a machine models one cache per
	// core, and a run that leaves most cores idle should not allocate and
	// collect their line state.
	tags [][]uint64

	hits, misses uint64
}

// NewCache builds a cache of capacity bytes with the given line size and
// associativity.
func NewCache(capacity int64, lineSize, ways int) *Cache {
	if lineSize <= 0 || ways <= 0 || capacity <= 0 {
		panic(fmt.Sprintf("smp: invalid cache geometry cap=%d line=%d ways=%d", capacity, lineSize, ways))
	}
	lines := int(capacity) / lineSize
	sets := lines / ways
	if sets == 0 {
		sets = 1
	}
	return &Cache{lineSize: lineSize, sets: sets, ways: ways}
}

// Touch simulates accessing [addr, addr+n) and updates hit/miss counters.
func (c *Cache) Touch(addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := addr / uint64(c.lineSize)
	last := (addr + uint64(n) - 1) / uint64(c.lineSize)
	for line := first; line <= last; line++ {
		c.touchLine(line)
	}
}

func (c *Cache) touchLine(line uint64) {
	if c.tags == nil {
		c.tags = make([][]uint64, c.sets)
	}
	set := int(line % uint64(c.sets))
	tags := c.tags[set]
	for i, t := range tags {
		if t == line+1 { // +1 so the zero value never matches
			c.hits++
			// Move to front (LRU update).
			copy(tags[1:i+1], tags[:i])
			tags[0] = line + 1
			return
		}
	}
	c.misses++
	if len(tags) < c.ways {
		tags = append([]uint64{line + 1}, tags...)
	} else {
		copy(tags[1:], tags[:len(tags)-1])
		tags[0] = line + 1
	}
	c.tags[set] = tags
}

// Stats returns lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// MissRate returns misses/(hits+misses), or 0 before any access.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset clears both the counters and the line state.
func (c *Cache) Reset() {
	c.hits, c.misses = 0, 0
	c.tags = nil
}

// LineSize returns the configured line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }
