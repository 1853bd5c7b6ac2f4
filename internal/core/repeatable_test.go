package core

import (
	"testing"

	"github.com/p2pkeyword/keysearch/internal/transport"
)

// TestMessageRepeatableClass pins the class of every index-protocol
// request: whether a second delivery of the same body is harmless, so a
// sender may resend or hedge it. A read (a one-shot search, a batch of
// sub-queries, a migration page) is, and so is a migration commit, whose
// second delivery drops nothing (TestMigrateCommitRedeliveryIsNoOp);
// anything else that mutates a table or a soft replica, or creates or
// advances a cumulative session, is not.
func TestMessageRepeatableClass(t *testing.T) {
	repeatable := transport.Repeatable
	for _, tc := range []struct {
		name string
		body any
		want bool
	}{
		{"msgInsertEntry", msgInsertEntry{}, false},
		{"msgDeleteEntry", msgDeleteEntry{}, false},
		{"msgTQuery/one-shot", msgTQuery{Threshold: 10}, true},
		{"msgTQuery/cumulative", msgTQuery{Threshold: 10, Cumulative: true}, false},
		{"msgTQuery/continuation", msgTQuery{Threshold: 10, SessionID: 7}, false},
		{"msgSubQueryBatch", msgSubQueryBatch{}, true},
		{"msgMigrateChunk", msgMigrateChunk{}, true},
		{"msgMigrateCommit", msgMigrateCommit{}, true},
		{"msgSoftPromote", msgSoftPromote{}, false},
		{"msgSoftInvalidate", msgSoftInvalidate{}, false},
		{"respAck", respAck{}, false},
		{"nil", nil, false},
	} {
		if got := repeatable(tc.body); got != tc.want {
			t.Errorf("%s: repeatable = %v, want %v", tc.name, got, tc.want)
		}
	}
}
