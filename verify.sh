#!/bin/sh
# Tier-1 verification: build, vet, the full test suite under the race
# detector (every parallel path — training fan-out, CV folds, forest
# trees, the extraction worker pool, the feature cache, and the
# cancellation/panic-containment paths — is race-checked on every run),
# and short native-fuzz smokes over the MiniC parser (the panic source
# the containment layer most needs to hold against), the lint rules that
# run outside that containment, the lexer, line counter and taint engine
# against their reference implementations, the query parser, the daemon's wire-to-tree
# admission, the classifier decoder, the whole model loader in both
# formats, the store's page decoder, overflow-chain reader and Open over
# fuzzed meta slots and log, the client's NDJSON stream reader, the
# router's shard keys against the full decode they replace, and the
# feature cache's disk records. The servebench module, which the root
# module's build never reaches, is vetted and tested on its own.
#
# The serving contracts are Go tests in the suite above: CLI-vs-daemon,
# batch-vs-stream, delta-vs-cold and solo-vs-fleet byte parity, 504
# deadlines, 429 backpressure, the SIGTERM drain (cmd/secmetricd), a
# shard killed and restarted under the router (internal/router), crash
# recovery of the findings history (internal/store/findex), and the trace
# export at -jobs 1 and 8 (cmd/secmetric).
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test -race =="
go test -race -timeout 5m ./...

echo "== fuzz smoke (FuzzParse, 10s) =="
go test -run Fuzz -fuzz FuzzParse -fuzztime 10s ./internal/minic

# FuzzLint runs the lint rules over fuzzed source in a fuzzed language
# (the five and Unknown): the daemon lints outside the per-file panic
# boundary, in each file's language. Its seeds include generated files of
# a few KB, so it caps minimization at 5 runs as well.
echo "== fuzz smoke (FuzzLint, 10s) =="
go test -run Fuzz -fuzz FuzzLint -fuzztime 10s -fuzzminimizetime 5x ./internal/lint

# FuzzTokenize and FuzzCountLines hold the lexer's and line counter's
# first-byte dispatch to the sequential references kept in their tests.
echo "== fuzz smoke (FuzzTokenize, 10s) =="
go test -run Fuzz -fuzz FuzzTokenize -fuzztime 10s ./internal/lexer

echo "== fuzz smoke (FuzzCountLines, 10s) =="
go test -run Fuzz -fuzz FuzzCountLines -fuzztime 10s ./internal/metrics

# FuzzTaint holds the intraprocedural taint pass (the origin solver with no
# summaries) to the boolean solver it replaced, kept in its tests, and runs
# the whole-program pass on the same input. Its seeds include generated
# files of a few KB, so it caps minimization at 5 runs as well.
echo "== fuzz smoke (FuzzTaint, 10s) =="
go test -run Fuzz -fuzz FuzzTaint -fuzztime 10s -fuzzminimizetime 5x ./internal/dataflow

echo "== fuzz smoke (FuzzQueryParse, 10s) =="
go test -run Fuzz -fuzz FuzzQueryParse -fuzztime 10s ./internal/store/query

echo "== fuzz smoke (FuzzWireAdmission, 10s) =="
go test -run Fuzz -fuzz FuzzWireAdmission -fuzztime 10s ./internal/server

echo "== fuzz smoke (FuzzClassifierDecode, 10s) =="
go test -run Fuzz -fuzz FuzzClassifierDecode -fuzztime 10s ./internal/ml

# FuzzLoadModel seeds with a 52 KB model. Minimizing one new input of that
# size takes the default 60 s, the whole smoke, so cap it at 5 runs.
echo "== fuzz smoke (FuzzLoadModel, 10s) =="
go test -run Fuzz -fuzz FuzzLoadModel -fuzztime 10s -fuzzminimizetime 5x ./internal/core

# FuzzDecodeNode re-seals each input's page CRC, so it reaches the cell
# bounds checks behind the checksum.
echo "== fuzz smoke (FuzzDecodeNode, 10s) =="
go test -run Fuzz -fuzz FuzzDecodeNode -fuzztime 10s ./internal/store

# FuzzReadOverflow re-seals its pages the same way. Its seeds are chains of
# several 4 KiB pages; minimizing one new input of that size takes the
# default 60 s, so cap it at 5 runs as for FuzzLoadModel.
echo "== fuzz smoke (FuzzReadOverflow, 10s) =="
go test -run Fuzz -fuzz FuzzReadOverflow -fuzztime 10s -fuzzminimizetime 5x ./internal/store

# FuzzOpen lays fuzzed meta slots and a fuzzed log over a small committed
# store, re-sealing their CRCs. Its seed log holds multi-page records, so
# it caps minimization at 5 runs as well.
echo "== fuzz smoke (FuzzOpen, 10s) =="
go test -run Fuzz -fuzz FuzzOpen -fuzztime 10s -fuzzminimizetime 5x ./internal/store

echo "== fuzz smoke (FuzzReadStream, 10s) =="
go test -run Fuzz -fuzz FuzzReadStream -fuzztime 10s ./pkg/client

# FuzzShardKey holds every route's key function, which decodes a body with
# its file contents elided, to the full json.Unmarshal it replaced. One
# seed is a generated tree of a few KB, so it caps minimization at 5 runs
# as well.
echo "== fuzz smoke (FuzzShardKey, 10s) =="
go test -run Fuzz -fuzz FuzzShardKey -fuzztime 10s -fuzzminimizetime 5x ./pkg/api

# FuzzCacheRecord plants each input as a feature-cache entry of both record
# kinds. Its seeds are the ~1 KB golden records; without the cap one
# minimization stalls the smoke after about 50 execs.
echo "== fuzz smoke (FuzzCacheRecord, 10s) =="
go test -run Fuzz -fuzz FuzzCacheRecord -fuzztime 10s -fuzzminimizetime 5x ./internal/core

# Servebench: the serving-path benchmark is its own Go module, so the
# build and tests above never compile it. Vet and test it here, offline
# like servebench/run.sh, so an API change it depends on fails now rather
# than at benchmark time.
echo "== servebench (go vet + go test -race) =="
(cd servebench && GOPROXY=off GOFLAGS= go vet . && GOPROXY=off GOFLAGS= go test -race -count=1 .)

echo "verify: OK"
