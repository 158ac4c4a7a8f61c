// Package expertfind is a from-scratch Go reproduction of "Academic
// Expert Finding via (k,P)-Core based Embedding over Heterogeneous
// Graphs" (ICDE 2022).
//
// The implementation lives under internal/: the heterogeneous academic
// graph and meta-path machinery (internal/hetgraph), the (k,P)-core
// community search of Algorithm 1 with its FastBCore and naive baselines
// (internal/kpcore), the simulated pre-trained document encoder
// (internal/textenc), sampling-based training-data generation
// (internal/sampling), triplet-loss fine-tuning with Adam
// (internal/train), the PG-Index proximity graph (internal/pgindex), the
// top-n expert ranking (internal/ta), the synthetic
// Aminer/DBLP/ACM stand-ins (internal/dataset), seven comparison baselines
// (internal/baselines), the assembled engine (internal/core), and the
// experiment harness regenerating every table and figure of the paper's
// evaluation (internal/experiments).
//
// Binaries: cmd/expertfind (query CLI), cmd/datagen (dataset generator),
// cmd/benchtab (prints the paper's tables and figures), cmd/expertserve
// (the HTTP service). example_test.go holds runnable examples whose
// output go test checks. Performance is measured by one program, bench/
// (its own module; `sh bench/run.sh`), whose workloads and metrics
// BENCHMARK.json names.
package expertfind
