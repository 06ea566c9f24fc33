#!/usr/bin/env bash
# Fails when an alternative of a `go test ... -run '<pattern>' <packages>`
# line in a workflow file names no test, benchmark, example or fuzz target in
# that line's packages (as `go test -list` prints them). Without it a renamed
# or deleted test silently drops out of the gate that named it.
#
# Usage: .github/check-run-patterns.sh [workflow.yml]   (from the module root)
set -euo pipefail

wf="${1:-.github/workflows/ci.yml}"
status=0
while IFS= read -r line; do
	pattern="$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")"
	pkgs="$(sed -E "s/.*-run '[^']*'//" <<<"$line")"
	# shellcheck disable=SC2086 # the packages are separate words
	if ! listed="$(go test -list '.*' $pkgs)"; then
		echo "$wf: go test -list failed for$pkgs" >&2
		status=1
		continue
	fi
	names="$(grep -E '^(Test|Benchmark|Example|Fuzz)' <<<"$listed" || true)"
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$wf: -run alternative '$alt' matches nothing in$pkgs" >&2
			status=1
		fi
	done
done < <(grep -vE '^[[:space:]]*#' "$wf" | grep -E "go test .*-run '")
exit "$status"
