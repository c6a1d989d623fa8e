#!/bin/sh
# loc.sh — the line count the simplicity issues quote: non-blank lines that
# do not start with // in the non-test Go files of the serving stack, the
# ranker core and the root package — and, beside that total (not inside it,
# so totals quoted by earlier PRs stay comparable), of the data layer under
# them: internal/{mapping,storage,sql,engine} — and their sum, the headline:
# code moved from the stack into the data layer shows in neither row alone.
# Informational: CI's lint job prints it, no threshold lives here (an issue
# that wants one states it).
#
#   sh scripts/loc.sh        # table on stdout
#   sh scripts/loc.sh -md    # the same as a Markdown table
set -eu
cd "$(dirname "$0")/.."

# count DIR [find options]: code lines of the non-test .go files under DIR.
count() {
	dir=$1
	shift
	find "$dir" "$@" -name '*.go' ! -name '*_test.go' -type f -exec cat {} + |
		grep -cvE '^[[:space:]]*(//|$)' || true
}

serve=$(count internal/serve)
core=$(count internal/core)
root=$(count . -maxdepth 1)
data=$(($(count internal/mapping) + $(count internal/storage) + $(count internal/sql) + $(count internal/engine)))

fmt='%-20s %6d\n'
if [ "${1:-}" = "-md" ]; then
	printf '| tree | code lines |\n|---|---:|\n'
	fmt='| `%s` | %d |\n'
fi
# shellcheck disable=SC2059 # the format is one of the two literals above
printf "$fmt" internal/serve/... "$serve" internal/core "$core" \
	'root package' "$root" total "$((serve + core + root))" \
	'data layer' "$data" sum "$((serve + core + root + data))"
