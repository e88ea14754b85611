// Package bench holds the fixed scales servebench builds its fixtures at:
// the synthetic forest model it serves and loads, and the storage-engine
// fixtures its store and query kernels run against. Changing a value
// changes what every servebench report measures, so reports taken across
// such a change do not compare.
package bench

const (
	// FitRows is the row count of the synthetic dataset the model is fit on.
	FitRows = 400
	// FitDepth is the maximum depth of each of the model's trees.
	FitDepth = 10
	// ModelTrees is the model's per-hypothesis tree count.
	ModelTrees = 20
	// StoreKeys and StoreValueBytes size the KV store of the store_put and
	// store_scan kernels; StoreRuns is the findings history behind
	// query_indexed.
	StoreKeys       = 2000
	StoreValueBytes = 256
	StoreRuns       = 256
)
