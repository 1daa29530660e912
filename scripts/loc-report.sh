#!/usr/bin/env bash
# Size report for PR bodies (ROADMAP aim 2): per crate, the non-test code
# lines under src/ and the number of public type items.
#
#   scripts/loc-report.sh            # one row per crate + total
#   scripts/loc-report.sh FILE...    # one row per given file + total
#
# A code line is a non-blank line that is not a `//` comment (doc comments
# included) and not inside a `#[cfg(test)]` item. Public types are lines
# declaring `pub struct|enum|trait|type`. Needs only bash and awk.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # FILE... -> "<code lines> <public types>"
    awk '
        FNR == 1 { skipping = 0; pending = 0; depth = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (line == "" || line ~ /^\/\//) next
            if (skipping) {
                depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                if (depth <= 0) skipping = 0
                next
            }
            if (line ~ /^#\[cfg\(test\)\]/) { pending = 1; next }
            if (pending) {
                if (line ~ /^#\[/) next # further attributes of the test item
                pending = 0
                depth = gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                if (depth > 0) skipping = 1
                next
            }
            code++
            if (line ~ /^pub (struct|enum|trait|type) /) types++
        }
        END { printf "%d %d\n", code, types }
    ' "$@" /dev/null
}

printf '%-48s %10s %10s\n' "unit" "code-lines" "pub-types"
total_code=0
total_types=0
row() { # LABEL FILE...
    local label=$1 code types
    shift
    read -r code types < <(count "$@")
    printf '%-48s %10d %10d\n' "$label" "$code" "$types"
    total_code=$((total_code + code))
    total_types=$((total_types + types))
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        row "$file" "$file"
    done
else
    for dir in crates/*/ .; do
        [ -d "$dir/src" ] || continue
        mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
        row "${dir%/}" "${files[@]}"
    done
fi
printf '%-48s %10d %10d\n' "total" "$total_code" "$total_types"
