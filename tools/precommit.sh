#!/usr/bin/env sh
# Pre-commit gate: run the same srds-lint invocation CI runs (layering,
# taint, hot-path rules) plus a formatting check, from a
# local checkout. Install with:
#   ln -s ../../tools/precommit.sh .git/hooks/pre-commit
#
# Assumes a configured build/ (for the compile database and the linter
# binary); falls back to a plain src/ scan when there is none yet.
set -eu

cd "$(git rev-parse --show-toplevel)"

LINT=build/tools/srds-lint/srds-lint
if [ ! -x "$LINT" ]; then
  echo "precommit: $LINT not built; run: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

if [ -f build/compile_commands.json ]; then
  "$LINT" --tests-dir tests \
    --compile-db build/compile_commands.json \
    --layers tools/srds-lint/layers.toml \
    --hotpath-allow tools/srds-lint/hotpath_allow.toml \
    --quiet src
else
  "$LINT" --tests-dir tests --layers tools/srds-lint/layers.toml \
    --hotpath-allow tools/srds-lint/hotpath_allow.toml \
    --quiet src
fi

# Formatting: advisory locally (clang-format versions drift), enforced in CI.
if command -v clang-format >/dev/null 2>&1; then
  git diff --cached --name-only --diff-filter=ACM |
    grep -E '\.(cpp|hpp|h|cc)$' |
    while IFS= read -r f; do
      if ! clang-format --dry-run --Werror "$f" >/dev/null 2>&1; then
        echo "precommit: needs clang-format: $f" >&2
      fi
    done
fi

echo "precommit: lint gate passed"
