// The benchmark is a module of its own because the driver behind
// BENCHMARK.json wants a compiled benchmark to carry its own build file.
// It reaches the engine's internal packages because its module path sits
// under hybriddb. `go build ./...` and `go test ./...` at the repository
// root skip it: run `go -C benchmark vet .` and `go -C benchmark test .`.
module hybriddb/benchmark

go 1.24

require hybriddb v0.0.0

replace hybriddb => ../
