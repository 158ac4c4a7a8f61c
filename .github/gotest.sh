#!/bin/sh
# gotest.sh is how every CI job runs Go tests, and the one rule they share:
# the tests a job names must run, not merely not fail.
#
#   sh .github/gotest.sh [FLAG...] [-run PATTERN] PACKAGE...
#   sh .github/gotest.sh -fuzz DURATION [FLAG...] PACKAGE...
#
# Test mode runs `go test -json` with the flags and packages given and
# fails when
#   - a test fails, or the packages do not build;
#   - a test reports SKIP;
#   - a package named without "..." runs no test;
#   - a top-level `|` alternative of -run matches no test that ran.
# Fuzz mode lists each package's Fuzz targets (`go test -list '^Fuzz'`)
# and fuzzes every one for DURATION. It fails when a target fails or a
# package named without "..." has no target.
#
# Other flags take their value after "=" (-count=2). Needs only go and
# POSIX sh, sed, awk and grep; run it from the module root.
set -uf

die() { echo "gotest: $*" >&2; exit 2; }

flags= run= fuzz= pkgs=
while [ $# -gt 0 ]; do
	case $1 in
	-run) [ $# -ge 2 ] || die "-run needs a pattern"; run=$2; shift ;;
	-run=*) run=${1#-run=} ;;
	-fuzz) [ $# -ge 2 ] || die "-fuzz needs a duration"; fuzz=$2; shift ;;
	-fuzz=*) fuzz=${1#-fuzz=} ;;
	-*) flags="$flags $1" ;;
	*) pkgs="$pkgs $1" ;;
	esac
	shift
done
[ -n "$pkgs" ] || die "no packages"

tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
failed=0
fail() { echo "gotest: FAIL: $*" >&2; failed=1; }

# named prints the import path of every argument named without "...".
named() {
	for p in $pkgs; do
		case $p in *...*) ;; *) go list "$p" || return ;; esac
	done
}

if [ -n "$fuzz" ]; then
	[ -z "$run" ] || die "-run and -fuzz do not mix"
	named >"$tmp/named" || exit 2
	for p in $(go list $pkgs); do
		list=$(go test $flags -list '^Fuzz' "$p") || { fail "$p: go test -list failed"; continue; }
		targets=$(printf '%s\n' "$list" | grep '^Fuzz')
		if [ -z "$targets" ]; then
			! grep -Fqx "$p" "$tmp/named" || fail "$p has no fuzz target"
			continue
		fi
		for t in $targets; do
			echo "gotest: fuzzing $p $t for $fuzz"
			go test $flags -run '^$' -fuzz "^$t\$" -fuzztime "$fuzz" "$p" || fail "$p $t"
		done
	done
	exit $failed
fi

# Run the tests, keep the JSON events and print their output as it comes
# (less the === RUN/PAUSE/CONT/NAME lines), keeping go test's exit status.
tab=$(printf '\t')
{
	if [ -n "$run" ]; then
		go test -json $flags -run "$run" $pkgs
	else
		go test -json $flags $pkgs
	fi
	echo $? >"$tmp/status"
} | tee "$tmp/events" |
	sed -n 's/.*"Action":"\(build-\)\{0,1\}output".*"Output":"\(.*\)"}$/\2/p' |
	sed -e 's/\\n$//' -e "s/\\\\t/$tab/g" -e 's/\\"/"/g' \
		-e 's/\\u003c/</g' -e 's/\\u003e/>/g' -e 's/\\u0026/\&/g' -e 's/\\\\/\\/g' |
	grep -Ev '^ *=== (RUN|PAUSE|CONT|NAME)'

status=$(cat "$tmp/status")
[ "$status" -eq 0 ] || fail "go test exited $status"

# A test that skips proves nothing.
grep '"Action":"skip"' "$tmp/events" | sed -n 's/.*"Package":"\([^"]*\)","Test":"\([^"]*\)".*/\1 \2/p' >"$tmp/skipped"
while read -r p t; do
	fail "$p $t skipped"
done <"$tmp/skipped"

# Top-level tests that passed, as "package name".
sed -n 's/.*"Action":"pass","Package":"\([^"]*\)","Test":"\([^"/]*\)".*/\1 \2/p' "$tmp/events" >"$tmp/ran"

named >"$tmp/named" || exit 2
while read -r p; do
	awk -v p="$p" '$1 == p { n++ } END { exit !n }' "$tmp/ran" || fail "$p ran no test"
done <"$tmp/named"

# Go splits -run at "/" into one pattern per level; the top level's
# alternatives are its "|"s outside parentheses.
if [ -n "$run" ]; then
	printf '%s\n' "${run%%/*}" | awk '{
		d = 0; s = ""
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "(") d++
			if (c == ")") d--
			if (c == "|" && d == 0) { print s; s = "" } else s = s c
		}
		print s
	}' >"$tmp/alts"
	cut -d' ' -f2 "$tmp/ran" >"$tmp/names"
	while IFS= read -r alt; do
		[ -z "$alt" ] || grep -Eq -- "$alt" "$tmp/names" ||
			fail "-run alternative '$alt' matches no test in$pkgs"
	done <"$tmp/alts"
fi

exit $failed
