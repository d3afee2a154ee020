#!/usr/bin/env bash
# Coverage map of the product paths: which src/ files and functions no
# product path executes. Builds the tools with --coverage (g++ 12 + gcov;
# no lcov or gcovr needed) in a scratch build tree, runs
#   - mcmcpar_run over every registered strategy, every periodic executor
#     and both periodic layouts, --batch, --sequence and --shard;
#   - tools/serve_smoke.sh, tools/shard_smoke.sh and tools/stream_smoke.sh;
# then reads gcov's JSON and prints the src/ files that never executed and,
# in the files that did, the functions that never executed. Tests, benches
# and examples are not run: code only they reach is what the map finds.
#
# usage: tools/coverage.sh [BUILD_DIR]     (default: build-coverage)
# Environment: CXX (default g++-12), GCOV (default gcov-12).
# Run from the repository root.
set -euo pipefail

ROOT=$(pwd)
BUILD=$(realpath -m "${1:-build-coverage}")
CXX=${CXX:-g++-12}
GCOV=${GCOV:-gcov-12}

echo "== building with --coverage in $BUILD =="
mkdir -p "$BUILD"
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_COMPILER="$CXX" -DCMAKE_CXX_FLAGS="--coverage" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" \
  -DMCMCPAR_BUILD_TESTS=OFF -DMCMCPAR_BUILD_BENCHES=OFF \
  -DMCMCPAR_BUILD_EXAMPLES=OFF > "$BUILD/coverage-configure.log"
cmake --build "$BUILD" -j "$(nproc)" --target \
  mcmcpar_run mcmcpar_serve mcmcpar_submit > "$BUILD/coverage-build.log"
find "$BUILD" -name '*.gcda' -delete  # count this run only

TOOLS="$BUILD/tools"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
SCENE=(--iterations 1500 --width 96 --height 96 --cells 4 --threads 2)

echo "== product paths =="
(
  cd "$WORK"
  "$TOOLS/mcmcpar_run" --strategy all "${SCENE[@]}"
  for executor in auto serial pool split-serial; do
    "$TOOLS/mcmcpar_run" --strategy periodic --opt executor="$executor" \
      "${SCENE[@]}"
  done
  "$TOOLS/mcmcpar_run" --strategy periodic --opt layout=grid "${SCENE[@]}"
  "$TOOLS/mcmcpar_run" --batch "$ROOT/tools/batch_smoke.manifest" \
    "${SCENE[@]}"
  "$TOOLS/mcmcpar_run" --sequence 4 --strategy serial "${SCENE[@]}"
  "$TOOLS/mcmcpar_run" --shard 2x2 --strategy serial "${SCENE[@]}"
  "$TOOLS/mcmcpar_run" --shard auto --strategy serial "${SCENE[@]}"
) > "$WORK/run.log" 2>&1 || { cat "$WORK/run.log"; exit 1; }
bash "$ROOT/tools/serve_smoke.sh" "$TOOLS/mcmcpar_serve" \
  "$TOOLS/mcmcpar_submit" "$ROOT/tools/batch_smoke.manifest" \
  > "$WORK/serve.log" 2>&1 || { cat "$WORK/serve.log"; exit 1; }
bash "$ROOT/tools/shard_smoke.sh" "$TOOLS/mcmcpar_serve" \
  "$TOOLS/mcmcpar_submit" "$TOOLS/mcmcpar_run" \
  > "$WORK/shard.log" 2>&1 || { cat "$WORK/shard.log"; exit 1; }
bash "$ROOT/tools/stream_smoke.sh" "$TOOLS/mcmcpar_serve" \
  "$TOOLS/mcmcpar_submit" \
  > "$WORK/stream.log" 2>&1 || { cat "$WORK/stream.log"; exit 1; }
echo "mcmcpar_run paths and the three smoke scripts passed"

# One JSON document per object file; a .gcno with no .gcda (never linked
# into a binary that ran) reads as all-zero counts.
find "$BUILD/CMakeFiles/mcmcpar.dir" "$BUILD/tools" -name '*.gcno' -print0 |
  while IFS= read -r -d '' gcno; do
    (cd "$(dirname "$gcno")" &&
      "$GCOV" --json-format --stdout --demangled-names "$gcno" 2>/dev/null)
  done > "$WORK/gcov.jsonl"

python3 - "$ROOT" "$WORK/gcov.jsonl" <<'EOF'
import json, os, sys

root, path = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
lines = {}  # file -> {line: count}, summed over every object file
funcs = {}  # (file, start line, name) -> count
decoder = json.JSONDecoder()
text = open(path).read()
pos = 0
while pos < len(text):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        break
    doc, pos = decoder.raw_decode(text, pos)
    cwd = doc.get("current_working_directory", "")
    for f in doc.get("files", []):
        name = os.path.normpath(os.path.join(cwd, f["file"]))
        if not name.startswith(src):
            continue
        rel = os.path.relpath(name, root)
        counts = lines.setdefault(rel, {})
        for ln in f.get("lines", []):
            counts[ln["line_number"]] = (counts.get(ln["line_number"], 0)
                                         + ln["count"])
        for fn in f.get("functions", []):
            key = (rel, fn["start_line"], fn.get("demangled_name", fn["name"]))
            funcs[key] = funcs.get(key, 0) + fn["execution_count"]

dead_files = sorted(f for f, c in lines.items()
                    if f.endswith(".cpp") and not any(c.values()))
print(f"== src/ files that never executed ({len(dead_files)}) ==")
for f in dead_files:
    print(f"  {f}  ({len(lines[f])} lines)")

def brief(name):
    """Drop parameter lists and the namespace prefix; the line number
    already tells overloads apart."""
    out, depth = [], 0
    for ch in name.replace("(anonymous namespace)", "{anon}"):
        if ch == ")":
            depth -= 1
        if depth == 0:
            out.append(ch)
        if ch == "(":
            depth += 1
    return "".join(out).replace("mcmcpar::", "")

dead = set(dead_files)
dead_funcs = sorted((f, line, name) for (f, line, name), n in funcs.items()
                    if n == 0 and f not in dead)
print(f"== functions that never executed, in files that did "
      f"({len(dead_funcs)}) ==")
for f, line, name in dead_funcs:
    print(f"  {f}:{line}  {brief(name)}")

total = sum(len(c) for c in lines.values())
hit = sum(1 for c in lines.values() for n in c.values() if n)
print(f"== src/ line coverage: {hit}/{total} "
      f"({100.0 * hit / max(total, 1):.1f}%) ==")
EOF
