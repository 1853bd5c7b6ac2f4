package chord

import (
	"testing"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// TestRPCRepeatableClass pins the class of every Chord request: whether
// a second delivery of the same body is harmless, so a sender may
// resend or hedge it. Routing steps, liveness probes and reference
// reads are; Notify and every reference or topology mutation are not —
// a second rpcInsertRef answers First = false where the first answered
// true.
func TestRPCRepeatableClass(t *testing.T) {
	repeatable := transport.Repeatable
	for _, tc := range []struct {
		name string
		body any
		want bool
	}{
		{"rpcFindClosest", rpcFindClosest{}, true},
		{"rpcGetPredecessor", rpcGetPredecessor{}, true},
		{"rpcNotify", rpcNotify{}, false},
		{"rpcGetSuccessorList", rpcGetSuccessorList{}, true},
		{"rpcPing", rpcPing{}, true},
		{"rpcInsertRef", rpcInsertRef{}, false},
		{"rpcDeleteRef", rpcDeleteRef{}, false},
		{"rpcReadRefs", rpcReadRefs{}, true},
		{"rpcHandoff", rpcHandoff{}, false},
		{"rpcDepart", rpcDepart{}, false},
		{"respOK", respOK{}, false},
		{"nil", nil, false},
	} {
		if got := repeatable(tc.body); got != tc.want {
			t.Errorf("%s: repeatable = %v, want %v", tc.name, got, tc.want)
		}
	}
}
