#!/bin/sh
# unreached.sh — functions no binary reaches: every non-test top-level func
# of the module (and of bench/) that the linker keeps out of every main
# package, built with inlining off, both plain and with -tags carverify (a
# function only the verification build calls is reached). It prints one
# candidate a line — file:line, length in lines, linker symbol — and then
# their count.
#
# Not a gate: a call through an interface is no edge in the linker's
# dependency dump, so a method reached only that way is listed too. Confirm
# every candidate by grep before deleting it.
#
# Filters: a main package's `main.X` is mapped back to its import path;
# generic instantiations lose their `[...]`; a value method counts as reached
# when its `(*T)` wrapper is; sealed-interface markers (`func (T) isX() {}`)
# and init/main are skipped.
#
#   sh scripts/unreached.sh        # candidates on stdout, count last
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# dump TAGS DIR PKG...: build each main package under module DIR with build
# tags TAGS and append the symbols its dependency dump names to $tmp/reached.
dump() {
	tags=$1
	dir=$2
	shift 2
	for pkg in "$@"; do
		(cd "$dir" && go build -tags "$tags" -gcflags=all=-l -ldflags=-dumpdep -o /dev/null "$pkg" 2>&1) |
			awk -F ' -> ' -v pkg="$pkg" 'NF == 2 {
				for (i = 1; i <= 2; i++) {
					s = $i
					if (s ~ /^main\./) s = pkg substr(s, 5)
					while (s ~ /\[[^][]*\]/) gsub(/\[[^][]*\]/, "", s)
					print s
					if (s ~ /\.\(\*[^)]*\)\./) { sub(/\(\*/, "", s); sub(/\)\./, ".", s); print s }
				}
			}' >>"$tmp/reached"
	done
}

for tags in '' carverify; do
	# shellcheck disable=SC2046 # one argument per package path
	dump "$tags" . $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
	# shellcheck disable=SC2046
	dump "$tags" bench $(cd bench && go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
done
sort -u "$tmp/reached" -o "$tmp/reached"

# Every top-level func of the non-test files, as "symbol file:line length".
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -type f | sort |
	while read -r f; do
		d=$(dirname "${f#./}")
		pkg=repro
		[ "$d" = . ] || pkg=repro/$d
		awk -v pkg="$pkg" -v file="${f#./}" '
			function emit() { if (sym != "") print sym, file ":" start, NR - start + 1 }
			/^func / {
				sym = ""
				start = NR
				rest = substr($0, 6)
				recv = ""
				if (rest ~ /^\(/) {
					recv = substr(rest, 2, index(rest, ")") - 2)
					rest = substr(rest, index(rest, ")") + 2)
					while (recv ~ /\[[^][]*\]/) gsub(/\[[^][]*\]/, "", recv)
					n = split(recv, f, " ")
					recv = f[n]
				}
				name = rest
				sub(/[[(].*/, "", name)
				if (name == "init" || (name == "main" && recv == "")) next
				if (recv != "" && name ~ /^is[A-Z]/ && $0 ~ /\) *\{ *\}$/) next
				if (recv == "") sym = pkg "." name
				else if (recv ~ /^\*/) sym = pkg ".(" recv ")." name
				else sym = pkg "." recv "." name
				if ($0 ~ /\}$/) { emit(); sym = "" }
				next
			}
			/^}/ { emit(); sym = "" }
		' "$f"
	done >"$tmp/funcs"

awk 'NR == FNR { reached[$1] = 1; next } !($1 in reached) { print $2, $3, $1; n++ }
	END { printf "%d candidates\n", n }' "$tmp/reached" "$tmp/funcs"
