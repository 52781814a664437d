package ptime

import (
	"strings"
	"testing"
)

// tracePins fixes the text of CertainTraced on three effort pins: the
// purify, gpurify and key-packing fact counts, the saturation step, and
// the line that reports a dissolution's components, supported cycles
// and T-facts. Every count in these lines is computed by the reduction
// steps themselves, so a step that keeps the verdict but moves a count
// shows up here.
var tracePins = map[string]string{
	"q0-7x15": `dissolve premier Markov cycle [x y] (Definition 5)
encoded 1 components, 27 supported cycles, 27 T-facts; recurse on Tdis(u | x, y), Udis0#c(x | u), Udis1#c(y | u)
  branch on unattacked atom Tdis (Lemma 9)`,
	"ex6-sat-34": `purify (Lemma 1): 12 -> 5 facts
saturate (Lemma 11): saturate-Tsat0
dissolve premier Markov cycle [w x] (Definition 5)
encoded 1 components, 1 supported cycles, 1 T-facts; recurse on S1(y | z), S2(y | z), T#c(x, z | w), Tsat0#c(y | z), Tdis(u | w, x, y), Udis0#c(w | u), Udis1#c(x | u)
  branch on unattacked atom Tdis (Lemma 9)
    purify (Lemma 1): 7 -> 6 facts
    eliminate patterns (Lemma 12): S1('y_0' | z), S2('y_0' | z), T_p#c(z |), Tsat0#c('y_0' | z), Udis0_p#c('w_0' |), Udis1_p#c('x_1' |)
    branch on unattacked atom S1 (Lemma 9)
      purify (Lemma 1): 6 -> 5 facts
      eliminate patterns (Lemma 12): S2_p('y_0' |), T_p#c('z_1' |), Tsat0_p#c('y_0' |), Udis0_p#c('w_0' |), Udis1_p#c('x_1' |)
      branch on unattacked atom S2_p (Lemma 9)`,
	"ex6-1": `gpurify (Lemma 17): 20 -> 0 facts
no embedding survives gpurification: NOT certain`,
	"composite-6": `purify (Lemma 1): 11 -> 6 facts
pack composite keys (Lemma 12): R_k(u_R | x, y, z), R_enc#c(x, y | u_R), R_dec#c(u_R | x, y), S_k(u_S | y, z, x), S_enc#c(y, z | u_S), S_dec#c(u_S | y, z)
dissolve premier Markov cycle [u_R u_S] (Definition 5)
encoded 1 components, 3 supported cycles, 3 T-facts; recurse on R_enc#c(x, y | u_R), R_dec#c(u_R | x, y), S_enc#c(y, z | u_S), S_dec#c(u_S | y, z), Tdis(u | u_R, u_S, x, y, z), Udis0#c(u_R | u), Udis1#c(u_S | u)
  branch on unattacked atom Tdis (Lemma 9)`,
}

func TestTracePinned(t *testing.T) {
	seen := 0
	for _, p := range ptimePins {
		want, ok := tracePins[p.name]
		if !ok {
			continue
		}
		seen++
		_, _, tr, err := CertainTraced(p.q, p.build(), true)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got := strings.Join(tr, "\n"); got != want {
			t.Errorf("%s: trace\n%s\nwant\n%s", p.name, got, want)
		}
	}
	if seen != len(tracePins) {
		t.Fatalf("found %d of %d pinned instances", seen, len(tracePins))
	}
}
