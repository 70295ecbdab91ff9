"""Programs where a thread cannot step before another one does, one for
each shape `Machine._blocker` knows: a woken waiter whose next instruction
enters a held monitor, a waiter on a monitor another thread holds, and a
parked thread whose next instruction enters a held monitor.
`tests/test_reduction.py` checks the search on each against the unreduced
one, `tests/test_interp.py` checks `run` on the first against the
step-by-step reference, and `tools/search_sweep.py` fingerprints their
searches."""

# the waiter's next instruction after `wait S` enters G, which the notifier
# holds while it notifies, so the woken waiter takes S back only once G is
# free; when the notifier runs first, its notify is lost and the waiter waits
# forever
WOKEN_ENTERS_HELD = """
class S { fields x; }
class G { fields x; }
fn a() {
e:
  s = classref S
  g = classref G
  one = const 1
  monitorenter s
  wait s
  monitorenter g
  output one
  monitorexit g
  monitorexit s
  ret
}
fn b() {
e:
  s = classref S
  g = classref G
  two = const 2
  monitorenter g
  monitorenter s
  notify s
  monitorexit s
  output two
  monitorexit g
  ret
}
thread a()
thread b()
"""

# the waiter prints only after a wait, and the printer's output stays
# unordered with it while it waits, on a free S or on the notifier's; while
# the notifier holds S, though, the waiter cannot step before it does, so the
# notifier's writes of S.n, which the woken waiter reads, are local
WAITING_ON_HELD = """
class S { fields n; }
fn waiter() {
e:
  s = classref S
  monitorenter s
  wait s
  v = getfield s, n
  output v
  monitorexit s
  ret
}
fn notifier() {
e:
  s = classref S
  one = const 1
  two = const 2
  monitorenter s
  putfield s, n, one
  output one
  putfield s, n, two
  notify s
  monitorexit s
  ret
}
fn printer() {
e:
  seven = const 7
  output seven
  ret
}
thread waiter()
thread notifier()
thread printer()
"""

# the sleeper, parked, enters G next, which the holder holds while it writes
# G.n, prints and unparks it
PARKED_ON_HELD = """
class G { fields n; }
fn sleeper() {
e:
  g = classref G
  park
  monitorenter g
  v = getfield g, n
  output v
  monitorexit g
  ret
}
fn holder() {
e:
  g = classref G
  me = const 1
  one = const 1
  two = const 2
  monitorenter g
  putfield g, n, one
  output one
  unpark me
  putfield g, n, two
  output two
  monitorexit g
  ret
}
thread sleeper()
thread holder()
"""

#: a thread that must wait for the stepping thread to step, in each shape
#: `Machine._blocker` knows
BLOCKED_PROGRAMS = (("woken-enters-held", WOKEN_ENTERS_HELD),
                    ("waiting-on-held", WAITING_ON_HELD), ("parked-on-held", PARKED_ON_HELD))
