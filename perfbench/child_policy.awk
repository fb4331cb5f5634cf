# Bang-bang policy behind the JSON-lines protocol: push in the direction of
# the velocity, u = sign(v) (u = 1 at rest).  Reads {"state": [...]} lines on
# stdin, answers {"action": [u]} on stdout, and exits at end of input.
#
#     mawk -W interactive -f perfbench/child_policy.awk
#
# awk rather than Python: it starts in about 2 ms (Python: about 30 ms) and
# answers in a few microseconds, so a call of the adjust_external mode
# measures llql's side of the protocol, not this bench-owned process.
{
    state = $0
    sub(/^[^[]*\[/, "", state)
    sub(/\].*$/, "", state)
    n = split(state, values, ",")
    print (values[n] + 0 >= 0 ? "{\"action\": [1.0]}" : "{\"action\": [-1.0]}")
    fflush()
}
