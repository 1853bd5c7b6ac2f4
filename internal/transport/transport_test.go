package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestMuxRoutesToFirstRecognizingHandler(t *testing.T) {
	intHandler := func(ctx context.Context, from Addr, body any) (any, error) {
		if v, ok := body.(int); ok {
			return v * 2, nil
		}
		return nil, fmt.Errorf("%w: %T", ErrUnhandled, body)
	}
	strHandler := func(ctx context.Context, from Addr, body any) (any, error) {
		if s, ok := body.(string); ok {
			return s + "!", nil
		}
		return nil, fmt.Errorf("%w: %T", ErrUnhandled, body)
	}
	mux := Mux(intHandler, strHandler)
	ctx := context.Background()

	if got, err := mux(ctx, "", 21); err != nil || got != 42 {
		t.Errorf("int via mux = %v, %v", got, err)
	}
	if got, err := mux(ctx, "", "hi"); err != nil || got != "hi!" {
		t.Errorf("string via mux = %v, %v", got, err)
	}
	if _, err := mux(ctx, "", 3.14); !errors.Is(err, ErrUnhandled) {
		t.Errorf("float via mux: %v, want ErrUnhandled", err)
	}
}

func TestMuxPropagatesRealErrors(t *testing.T) {
	boom := errors.New("boom")
	failing := func(ctx context.Context, from Addr, body any) (any, error) {
		return nil, boom
	}
	fallback := func(ctx context.Context, from Addr, body any) (any, error) {
		return "should not reach", nil
	}
	mux := Mux(failing, fallback)
	if _, err := mux(context.Background(), "", 1); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom (no fallthrough on real errors)", err)
	}
}

// TestMuxSecondHandlerAllocatesNothing: on a muxed endpoint every
// message of a later layer is first refused by each earlier one, so a
// refusal must cost nothing — the first handler returns the bare
// sentinel and the mux builds no error on the way to the second.
func TestMuxSecondHandlerAllocatesNothing(t *testing.T) {
	refuse := func(ctx context.Context, from Addr, body any) (any, error) {
		return nil, ErrUnhandled
	}
	var resp any = "taken"
	take := func(ctx context.Context, from Addr, body any) (any, error) {
		return resp, nil
	}
	mux := Mux(refuse, take)
	ctx := context.Background()
	var body any = 3.14
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := mux(ctx, "", body); err != nil || got != resp {
			t.Fatalf("mux = %v, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a message the second handler takes costs %.0f allocations, want 0", allocs)
	}
}

// TestMuxTotalMissNamesType: handlers refuse with the bare sentinel;
// the mux alone, once every layer has refused, says which Go type
// nobody took.
func TestMuxTotalMissNamesType(t *testing.T) {
	type orphan struct{ N int }
	refuse := func(ctx context.Context, from Addr, body any) (any, error) {
		return nil, ErrUnhandled
	}
	_, err := Mux(refuse, refuse)(context.Background(), "", orphan{N: 1})
	if !errors.Is(err, ErrUnhandled) {
		t.Fatalf("err = %v, want ErrUnhandled", err)
	}
	if want := "transport.orphan"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to name the message type %q", err, want)
	}
}

func TestMuxEmpty(t *testing.T) {
	mux := Mux()
	if _, err := mux(context.Background(), "", 1); !errors.Is(err, ErrUnhandled) {
		t.Errorf("empty mux: %v", err)
	}
}
