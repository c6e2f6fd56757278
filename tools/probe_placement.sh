#!/usr/bin/env bash
# Where the linker put perfbench's speed-probe loop.
#
# perfbench divides every interval by the time of SpeedProbe::kernel,
# and that time depends on where the kernel's inner loop lands: inside
# one 64-byte line it reads fast and steady, straddling two it reads
# slow and noisy. Code the linker places ahead of perfbench's own
# .text (the libraries' .text.unlikely and .text.startup sections,
# libgcc's cpuinfo.o) moves it whenever its size changes. This prints
# the loop's address, its offset mod 64 and whether it straddles a
# line.
#
# The inner loop is the first backward conditional jump in the
# kernel's disassembly: it runs from the jump's target to the end of
# the jump.
#
# Usage: tools/probe_placement.sh [perfbench_driver]
#        (default: .bench_build/perfbench/perfbench_driver, which
#        `python3 perfbench/run.py` builds)
# Exit: 0 when the loop sits inside one 64-byte line, 1 when it
#       straddles two, 2 when the binary or the loop is not found.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
binary="${1:-${repo_root}/.bench_build/perfbench/perfbench_driver}"
line_bytes=64

if [[ ! -f "${binary}" ]]; then
    echo "probe_placement: no binary at ${binary}" >&2
    exit 2
fi

# Address and size of perfbench::SpeedProbe::kernel().
symbol="$(nm -C -S "${binary}" |
    awk '$4 == "perfbench::SpeedProbe::kernel()" && !seen {
        print $1, $2; seen = 1 }')"
if [[ -z "${symbol}" ]]; then
    echo "probe_placement: no SpeedProbe::kernel in ${binary}" >&2
    exit 2
fi
read -r start size <<< "${symbol}"
start=$((16#${start}))
size=$((16#${size}))

# objdump -d lines read "<addr>:<TAB><raw bytes><TAB><instruction>".
loop_start=""
while IFS=$'\t' read -r addr bytes insn; do
    [[ ${addr} =~ ^[[:space:]]*([0-9a-f]+):$ ]] || continue
    at=$((16#${BASH_REMATCH[1]}))
    [[ ${insn} =~ ^(j[a-z]+)[[:space:]]+([0-9a-f]+) ]] || continue
    [[ ${BASH_REMATCH[1]} != jmp ]] || continue
    target=$((16#${BASH_REMATCH[2]}))
    if ((target >= start && target < at)); then
        loop_start=${target}
        loop_end=$((at + $(wc -w <<< "${bytes}")))
        break
    fi
done < <(objdump -d --start-address="${start}" \
    --stop-address="$((start + size))" "${binary}")
if [[ -z "${loop_start}" ]]; then
    echo "probe_placement: no backward jump in SpeedProbe::kernel" >&2
    exit 2
fi

offset=$((loop_start % line_bytes))
printf 'binary      %s\n' "${binary}"
printf 'kernel      0x%x (%d bytes)\n' "${start}" "${size}"
printf 'inner loop  0x%x-0x%x (%d bytes), kernel+0x%x\n' \
    "${loop_start}" "${loop_end}" "$((loop_end - loop_start))" \
    "$((loop_start - start))"
printf 'offset      %d mod %d\n' "${offset}" "${line_bytes}"
if ((loop_start / line_bytes != (loop_end - 1) / line_bytes)); then
    echo "placement   STRADDLES two ${line_bytes}-byte lines"
    exit 1
fi
echo "placement   inside one ${line_bytes}-byte line"
