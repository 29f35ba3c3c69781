package core

// Exported to the external core_test package, which imports check (and so,
// transitively, core itself).
var CacheTestTrace = cacheTestTrace

const CacheSchema = cacheSchema
