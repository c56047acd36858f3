#!/usr/bin/env bash
# inlinecheck.sh fails unless the compiler inlines the timing engine's
# per-lane helpers at every call site in internal/pipeline/fused.go. The
# sweeps run them once per instruction per lane, and the engine's speed
# rests on each compiling into its caller: a helper edited past the
# inlining budget (cost 80) becomes a call on that path and slows every
# timing run without failing a test. Run it from anywhere in the checkout;
# check.sh and CI run it.
set -euo pipefail
cd "$(dirname "$0")/.."

file=internal/pipeline/fused.go
report=$(go build -gcflags=-m ./internal/pipeline 2>&1)

# Each entry is "<name as the compiler reports it> <call pattern>".
helpers=(
	'fetchPoint.fetch \.fetch\('
	'fetchPoint.robStall \.robStall\('
	'fetchPoint.advanceTo \.advanceTo\('
	'readyAt (^|[^.[:alnum:]_])readyAt\('
	'(*laneCursor).commit \.commit\('
	'(*laneRings).slot \.slot\('
	'(*laneRings).fits \.fits\('
)

status=0
for h in "${helpers[@]}"; do
	name=${h%% *}
	pattern=${h#* }
	# Call sites: code (comments stripped) matching the pattern, outside the
	# declaration, as "line count" pairs.
	sites=$(sed 's://.*$::' "$file" | grep -nE "$pattern" | grep -vE '^[0-9]+:func ' |
		P="$pattern" awk -F: '{ line=$1; sub(/^[0-9]+:/, ""); print line, gsub(ENVIRON["P"], "") }' || true)
	if [ -z "$sites" ]; then
		echo "inlinecheck: no call site of $name in $file" >&2
		status=1
		continue
	fi
	missed=0
	while read -r line want; do
		got=$(grep -F "inlining call to $name" <<<"$report" | grep -cF "$file:$line:" || true)
		if [ "$got" -lt "$want" ]; then
			echo "inlinecheck: $file:$line: $name not inlined ($got of $want calls)" >&2
			missed=1
		fi
	done <<<"$sites"
	if [ "$missed" = 1 ]; then
		status=1
	else
		echo "inlined: $name at every call site ($(wc -l <<<"$sites") lines)"
	fi
done
exit $status
