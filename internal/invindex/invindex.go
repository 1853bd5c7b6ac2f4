// Package invindex implements the distributed inverted index baseline
// the paper compares against ("DII" in Figure 6): every keyword is
// hashed to a single node of the same 2^r logical node space used by
// the hypercube scheme, and that node stores the posting list of every
// object containing the keyword. Object insert/delete touches one node
// per keyword; a query fetches each keyword's posting list and
// intersects them.
package invindex

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/p2pkeyword/keysearch/internal/core"
	"github.com/p2pkeyword/keysearch/internal/dht"
	"github.com/p2pkeyword/keysearch/internal/hypercube"
	"github.com/p2pkeyword/keysearch/internal/keyword"
	"github.com/p2pkeyword/keysearch/internal/transport"
)

// NodeFor hashes a keyword to its responsible logical node in an
// r-dimensional node space (Figure 6's "hash the keyword to determine
// a node in the hypercube").
func NodeFor(word string, r int) hypercube.Vertex {
	mask := hypercube.MustNew(r).Mask()
	return hypercube.Vertex(dht.HashString("dii:"+word)) & mask
}

// Wire messages.
type (
	msgInsertPosting struct {
		Vertex   uint64
		Word     string
		ObjectID string
	}
	msgDeletePosting struct {
		Vertex   uint64
		Word     string
		ObjectID string
	}
	respDeletePosting struct{ Found bool }
	msgFetchPostings  struct {
		Vertex uint64
		Word   string
	}
	respFetchPostings struct{ ObjectIDs []string }
	respAck           struct{}
)

// Server stores posting lists for the logical nodes assigned to one
// physical node. Fetches and load scans — the read-mostly query path —
// take the lock in read mode, so concurrent searches never serialize
// on each other.
type Server struct {
	mu       sync.RWMutex
	postings map[hypercube.Vertex]map[string]map[string]struct{} // vertex → word → object IDs
}

// NewServer builds an empty baseline server.
func NewServer() *Server {
	return &Server{postings: make(map[hypercube.Vertex]map[string]map[string]struct{})}
}

// Handler processes baseline protocol messages.
func (s *Server) Handler(ctx context.Context, from transport.Addr, body any) (any, error) {
	switch msg := body.(type) {
	case msgInsertPosting:
		s.insert(hypercube.Vertex(msg.Vertex), msg.Word, msg.ObjectID)
		return respAck{}, nil
	case msgDeletePosting:
		return respDeletePosting{Found: s.delete(hypercube.Vertex(msg.Vertex), msg.Word, msg.ObjectID)}, nil
	case msgFetchPostings:
		return respFetchPostings{ObjectIDs: s.fetch(hypercube.Vertex(msg.Vertex), msg.Word)}, nil
	default:
		return nil, core.ErrUnhandledMessage
	}
}

func (s *Server) insert(v hypercube.Vertex, word, objectID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byWord, ok := s.postings[v]
	if !ok {
		byWord = make(map[string]map[string]struct{})
		s.postings[v] = byWord
	}
	ids, ok := byWord[word]
	if !ok {
		ids = make(map[string]struct{})
		byWord[word] = ids
	}
	ids[objectID] = struct{}{}
}

func (s *Server) delete(v hypercube.Vertex, word, objectID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	byWord, ok := s.postings[v]
	if !ok {
		return false
	}
	ids, ok := byWord[word]
	if !ok {
		return false
	}
	if _, ok := ids[objectID]; !ok {
		return false
	}
	delete(ids, objectID)
	if len(ids) == 0 {
		delete(byWord, word)
		if len(byWord) == 0 {
			delete(s.postings, v)
		}
	}
	return true
}

func (s *Server) fetch(v hypercube.Vertex, word string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	byWord, ok := s.postings[v]
	if !ok {
		return nil
	}
	ids, ok := byWord[word]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Load returns the total number of object references stored (the
// Figure 6 load metric: one reference per keyword per object).
func (s *Server) Load() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, byWord := range s.postings {
		for _, ids := range byWord {
			total += len(ids)
		}
	}
	return total
}

// Client is the initiator-side baseline API.
type Client struct {
	r        int
	resolver core.Resolver
	sender   transport.Sender
}

// NewClient builds a baseline client over an r-dimensional logical
// node space.
func NewClient(r int, resolver core.Resolver, sender transport.Sender) (*Client, error) {
	if r < 1 || r > hypercube.MaxDim {
		return nil, fmt.Errorf("invindex: dimension %d outside [1, %d]", r, hypercube.MaxDim)
	}
	if resolver == nil || sender == nil {
		return nil, fmt.Errorf("invindex: client needs a Resolver and a Sender")
	}
	return &Client{r: r, resolver: resolver, sender: sender}, nil
}

// Insert indexes the object under every one of its keywords: k
// lookups and k messages for a k-keyword object, the per-object cost
// the paper contrasts with the hypercube scheme's single message.
func (c *Client) Insert(ctx context.Context, obj core.Object) (core.Stats, error) {
	if err := obj.Validate(); err != nil {
		return core.Stats{}, err
	}
	var st core.Stats
	for _, w := range obj.Keywords.Words() {
		v := NodeFor(w, c.r)
		if _, _, err := c.resolver.Send(ctx, c.sender, "dii", v, "", msgInsertPosting{
			Vertex: uint64(v), Word: w, ObjectID: obj.ID,
		}); err != nil {
			return st, fmt.Errorf("insert %q keyword %q: %w", obj.ID, w, err)
		}
		st.NodesContacted++
		st.Messages += 2
	}
	return st, nil
}

// Delete removes the object's posting from every keyword node.
func (c *Client) Delete(ctx context.Context, obj core.Object) (core.Stats, error) {
	if err := obj.Validate(); err != nil {
		return core.Stats{}, err
	}
	var st core.Stats
	for _, w := range obj.Keywords.Words() {
		v := NodeFor(w, c.r)
		if _, _, err := c.resolver.Send(ctx, c.sender, "dii", v, "", msgDeletePosting{
			Vertex: uint64(v), Word: w, ObjectID: obj.ID,
		}); err != nil {
			return st, fmt.Errorf("delete %q keyword %q: %w", obj.ID, w, err)
		}
		st.NodesContacted++
		st.Messages += 2
	}
	return st, nil
}

// Search returns the objects containing every keyword of k, by
// fetching each keyword's posting list and intersecting. Lists are
// fetched in query order; an empty intermediate intersection stops
// further fetches.
func (c *Client) Search(ctx context.Context, k keyword.Set) ([]string, core.Stats, error) {
	if k.IsEmpty() {
		return nil, core.Stats{}, core.ErrEmptyQuery
	}
	var (
		st        core.Stats
		intersect map[string]bool
	)
	for _, w := range k.Words() {
		v := NodeFor(w, c.r)
		raw, _, err := c.resolver.Send(ctx, c.sender, "dii", v, "", msgFetchPostings{Vertex: uint64(v), Word: w})
		if err != nil {
			return nil, st, fmt.Errorf("search %q: %w", w, err)
		}
		st.NodesContacted++
		st.Messages += 2
		resp, ok := raw.(respFetchPostings)
		if !ok {
			return nil, st, fmt.Errorf("search %q: unexpected response %T", w, raw)
		}
		ids := make(map[string]bool, len(resp.ObjectIDs))
		for _, id := range resp.ObjectIDs {
			ids[id] = true
		}
		if intersect == nil {
			intersect = ids
		} else {
			for id := range intersect {
				if !ids[id] {
					delete(intersect, id)
				}
			}
		}
		if len(intersect) == 0 {
			break
		}
	}
	out := make([]string, 0, len(intersect))
	for id := range intersect {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, st, nil
}
