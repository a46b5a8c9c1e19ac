package margo_test

import (
	"context"
	"fmt"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// The anatomy of a component (README.md): a message type, a handler
// written against it, the provider's RPC set, a client call.
type greeting struct{ Text string }

func (g *greeting) Proc(p *codec.Proc) { p.String(&g.Text) }

func hello(_ context.Context, _ *mercury.Handle, in *greeting) (codec.Message, error) {
	return &greeting{Text: "hello, " + in.Text}, nil
}

func Example() {
	fabric := mercury.NewFabric()
	scls, _ := fabric.NewClass("server")
	ccls, _ := fabric.NewClass("client")
	server, _ := margo.New(scls, nil)
	client, _ := margo.New(ccls, nil)
	defer server.Finalize()
	defer client.Finalize()

	rpcs, _ := server.RegisterSet(7, nil, margo.RPC{Name: "hello", Handler: margo.Serve(hello)})
	defer rpcs.Close()

	var out greeting
	err := client.Call(context.Background(), server.Addr(), "hello", 7, &greeting{Text: "mochi"}, &out)
	fmt.Println(out.Text, err)
	// Output: hello, mochi <nil>
}
