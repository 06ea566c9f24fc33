#!/usr/bin/env bash
# Runs the mutant catalogue: each testdata/mutants/*.patch reinstates one
# historical bug, makes one of verifier.go's signature checks accept
# everything, or breaks one rule of the echo hold, the anchor hold or the
# block cache. For each patch (all of them, or those named on the command
# line) the script copies the working tree to a scratch directory, applies
# the patch there, runs tier-1 (go build ./... && go test ./...) and prints
# the tests that fail — the mutant's killers. The checkout itself is never
# modified.
#
#   bash testdata/mutants/run.sh                        # every mutant
#   bash testdata/mutants/run.sh testdata/mutants/pr10-skip-threshold.patch
#
# Exit status: 0 when every mutant is killed; 1 when one survives, a patch
# no longer applies or a mutant does not build.
set -uo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
	patches=("$root"/testdata/mutants/*.patch)
fi

scratch=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

status=0
for p in "${patches[@]}"; do
	p=$(cd "$(dirname "$p")" && pwd)/$(basename "$p")
	name=$(basename "$p" .patch)
	tree="$scratch/$name"
	mkdir -p "$tree"
	(cd "$root" && git ls-files -z --cached --others --exclude-standard |
		tar --null -T - --ignore-failed-read -cf - 2>/dev/null) | tar -xf - -C "$tree"
	if ! (cd "$tree" && patch -p1 --quiet <"$p"); then
		echo "$name: ERROR: the patch does not apply"
		status=1
		continue
	fi
	log="$scratch/$name.log"
	if ! (cd "$tree" && go build ./... >"$log" 2>&1); then
		echo "$name: ERROR: the mutant does not build"
		sed 's/^/    /' "$log"
		status=1
		continue
	fi
	(cd "$tree" && go test -count=1 ./... >"$log" 2>&1)
	killers=$(grep -E '^\s*--- FAIL: ' "$log" | sed -E 's/^\s*--- FAIL: ([^ ]+).*/\1/' | sort -u | tr '\n' ' ')
	if [ -n "$killers" ]; then
		echo "$name: killed by $killers"
	elif grep -qE '^(FAIL|panic:)' "$log"; then
		echo "$name: killed by a failing package: $(grep -E '^FAIL\s' "$log" | awk '{print $2}' | tr '\n' ' ')"
	else
		echo "$name: SURVIVED"
		status=1
	fi
	rm -rf "$tree"
done
exit $status
