// Package cachesim is the cache model the cycle simulators share: gpusim's
// per-SM L1 and shared L2, and cpusim's per-core L1 and shared L2. A cache
// answers hit or miss and counts both; timing is the caller's.
package cachesim

// LineSize is the line size in bytes: the 32-byte transaction granularity
// the whole pipeline uses.
const LineSize = 32

// Config sizes a set-associative cache with LineSize-byte lines.
type Config struct {
	Sets    int
	Ways    int
	Latency uint64 // hit latency in cycles
}

// Cache is an LRU set-associative tag array.
type Cache struct {
	cfg   Config
	tags  []uint64
	valid []bool
	used  []uint64 // LRU timestamps
	tick  uint64

	Hits   uint64
	Misses uint64
}

// New returns an empty cache of the configured geometry.
func New(cfg Config) *Cache {
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:   cfg,
		tags:  make([]uint64, n),
		valid: make([]bool, n),
		used:  make([]uint64, n),
	}
}

// Access looks up the line containing addr, filling it on miss, and reports
// whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	line := addr / LineSize
	set := int(line % uint64(c.cfg.Sets))
	base := set * c.cfg.Ways
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.valid[i] && c.tags[i] == line {
			c.used[i] = c.tick
			c.Hits++
			return true
		}
		if c.used[i] < oldest {
			victim, oldest = i, c.used[i]
		}
	}
	c.Misses++
	c.tags[victim] = line
	c.valid[victim] = true
	c.used[victim] = c.tick
	return false
}

// HitRate returns hits/(hits+misses) summed over the caches, or 0 when all
// are idle.
func HitRate(cs ...*Cache) float64 {
	var h, m uint64
	for _, c := range cs {
		h += c.Hits
		m += c.Misses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
