//go:build race

package cluster

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation budgets that rest on pooling do not hold under it.
const raceEnabled = true
