# Sourced by daemon_smoke.sh and daemon_nightly.sh: the one
# way a script brings an archgraphd up. The caller sets DAEMON and CLIENT
# (the two binaries) and owns DPID (its cleanup trap kills it).

# launch_daemon SOCKET ARGS... — start `$DAEMON --socket SOCKET ARGS...` in
# the background with the caller's environment, leave its pid in DPID, and
# return 0 once it *answers* a ping; the socket file existing would prove
# only the bind. Returns 1 if the daemon exits or stays silent for ~30 s.
launch_daemon() {
    local sock="$1"
    shift
    "$DAEMON" --socket "$sock" "$@" &
    DPID=$!
    # Each round re-dials for 700 ms (--retries 3: 100 + 200 + 400); between
    # rounds, give up at once if the daemon is gone (a refused bind exits).
    for _ in $(seq 1 40); do
        "$CLIENT" --socket "$sock" --retries 3 ping > /dev/null 2>&1 && return 0
        kill -0 "$DPID" 2>/dev/null || return 1
    done
    return 1
}
