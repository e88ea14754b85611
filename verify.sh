#!/bin/sh
# Tier-1 verification: build, vet, the full test suite under the race
# detector (every parallel path — training fan-out, CV folds, forest
# trees, the extraction worker pool, the feature cache, and the
# cancellation/panic-containment paths — is race-checked on every run),
# and short native-fuzz smokes over the MiniC parser (the panic source
# the containment layer most needs to hold against), the lexer and line
# counter against their reference implementations, the query parser,
# the daemon's wire-to-tree admission, the classifier decoder, the
# whole model loader in both formats, the store's page decoder,
# overflow-chain reader and Open over fuzzed meta slots and log, the
# client's NDJSON stream reader, and the feature cache's disk records. The servebench module, which the root
# module's build never reaches, is vetted and tested on its own. Ends with
# the live secmetricd drills that need real processes: SIGTERM must drain
# requests in flight cleanly, and a 3-backend fleet behind the
# consistent-hash shard router must keep every repository's bytes through
# a SIGKILLed backend and its recovery. The serving contracts that need no process —
# CLI-vs-daemon, batch-vs-stream, delta-vs-cold, and solo-vs-fleet byte
# parity, 504 deadlines, 429 backpressure — run in go test.
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

# FuzzTokenize and FuzzCountLines hold the lexer's and line counter's
# first-byte dispatch to the sequential references kept in their tests.
echo "== fuzz smoke (FuzzTokenize, 10s) =="
go test -run Fuzz -fuzz FuzzTokenize -fuzztime 10s ./internal/lexer

echo "== fuzz smoke (FuzzCountLines, 10s) =="
go test -run Fuzz -fuzz FuzzCountLines -fuzztime 10s ./internal/metrics

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

# FuzzCacheRecord plants each input as a feature-cache entry of both record
# kinds. Its seeds are the ~1 KB golden records; without the cap one
# minimization stalls the smoke after about 50 execs.
echo "== fuzz smoke (FuzzCacheRecord, 10s) =="
go test -run Fuzz -fuzz FuzzCacheRecord -fuzztime 10s -fuzzminimizetime 5x ./internal/core

echo "== findings smoke (examples/vulnapp) =="
out=$(go run ./cmd/secmetric findings examples/vulnapp)
echo "$out"
case "$out" in
*CWE-121*) ;;
*)
	echo "findings smoke: expected a CWE-121 finding in examples/vulnapp" >&2
	exit 1
	;;
esac

# Servebench: the serving-path benchmark is its own Go module, so the
# build and tests above never compile it. Vet and test it here, offline
# like servebench/run.sh, so an API change it depends on fails now rather
# than at benchmark time.
echo "== servebench (go vet + go test -race) =="
(cd servebench && GOPROXY=off GOFLAGS= go vet . && GOPROXY=off GOFLAGS= go test -race -count=1 .)

# Store smoke: the embedded engine must survive an injected mid-commit
# crash losing no acknowledged run (two crash offsets), and MVCC snapshot
# reads must stay byte-identical while a writer commits 100 runs — the
# parity acceptance test, run explicitly under the race detector.
echo "== store smoke (crash recovery + snapshot parity) =="
go run ./cmd/storesmoke -crash $((128 * 1024)) -runs 600
go run ./cmd/storesmoke -crash $((300 * 1024)) -runs 1200 -seed 99
go test -race -count=1 -run 'TestSnapshotParityUnderConcurrentWriter|TestCrashRecoveryTorture' ./internal/store

# Rank smoke: the function-level ranking must be byte-identical at any
# worker-pool width, and the acceptance ordering on examples/vulnapp must
# hold (the function reaching three sinks outranks everything, the benign
# input wrapper comes last).
echo "== rank smoke (jobs parity + acceptance ordering) =="
ranktmp=$(mktemp -d)
go run ./cmd/secmetric rank -jobs 1 -json examples/vulnapp > "$ranktmp/j1.json"
go run ./cmd/secmetric rank -jobs 8 -json examples/vulnapp > "$ranktmp/j8.json"
cmp "$ranktmp/j1.json" "$ranktmp/j8.json" || {
	echo "rank smoke: -jobs 1 and -jobs 8 rankings differ" >&2
	exit 1
}
rankout=$(go run ./cmd/secmetric rank -top 10 examples/vulnapp)
echo "$rankout"
first_fn=$(echo "$rankout" | awk '$1 == "1" { print $2 }')
if [ "$first_fn" != "main" ]; then
	echo "rank smoke: expected main at rank 1, got '$first_fn'" >&2
	exit 1
fi
rm -rf "$ranktmp"

# Trace smoke: a traced analysis of examples/vulnapp must produce
# well-formed, non-empty trace_event JSON, and the span structure must be
# identical at -jobs 1 and -jobs 8 (cacheless; only durations may vary).
echo "== trace smoke (analyze -trace on examples/vulnapp) =="
tracetmp=$(mktemp -d)
go run ./cmd/secmetric analyze -jobs 1 -trace "$tracetmp/j1.json" -slowest 3 examples/vulnapp
go run ./cmd/secmetric analyze -jobs 8 -trace "$tracetmp/j8.json" examples/vulnapp > /dev/null
go run ./cmd/tracecheck "$tracetmp/j1.json" "$tracetmp/j8.json"
rm -rf "$tracetmp"

# Daemon smoke: only what needs real processes. Byte parity (CLI vs
# daemon, batch vs stream, delta vs cold, solo vs fleet), deadlines, and
# 429 backpressure are Go tests above.
echo "== daemon smoke (SIGTERM drain, fleet SIGKILL drill) =="
smoketmp=$(mktemp -d)
trap 'rm -rf "$smoketmp"' EXIT
go build -o "$smoketmp/" ./cmd/secmetricd ./cmd/daemonsmoke
go run ./cmd/trainctl -kind logistic -folds 5 -seed 5 -out "$smoketmp/model.json" >/dev/null
# A daemon that receives SIGTERM with requests in flight (one running, the
# rest queued) must answer them all, then exit 0 with a clean-drain log.
"$smoketmp/daemonsmoke" -mode drain -daemon "$smoketmp/secmetricd" \
	-model "$smoketmp/model.json" -dir examples/vulnapp
# Three -db backends behind the consistent-hash router: SIGKILL one under
# load, require every repository to keep its bytes through the outage,
# restart the backend on its old address, and require it re-admitted.
"$smoketmp/daemonsmoke" -mode fleet -daemon "$smoketmp/secmetricd" \
	-model "$smoketmp/model.json" -dir examples/vulnapp

echo "verify: OK"
