// Package selftest is the one end-to-end acceptance harness of the serving
// stack. It is test code only: its go tests boot a radixserve node and a
// radixrouter in front of a three-node fleet on ephemeral ports and drive
// both over real HTTP with the same phases. A node and a router expose the
// same API, so a phase is written once against a target and runs unchanged
// against either tier. The router's replica control loop has its own
// acceptance test, TestAutoscaleLoopEndToEnd in internal/cluster, which
// steps the loop one evaluation at a time.
//
// The harness asserts behaviour only. Performance is recorded by the
// repository's benchmark (BENCHMARK.json, radixbench/), never by a selftest.
package selftest
