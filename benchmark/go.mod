// snapmark is a module of its own so that the benchmark is built by its own
// build file and the root module's `go build ./...` and `go test ./...` do not
// see it. The module path keeps the `snap/` prefix: that is what lets it
// import snap/internal/... (Go checks the internal rule on import paths).
module snap/benchmark

go 1.24

require snap v0.0.0

replace snap => ../
