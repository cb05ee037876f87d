package server_test

import (
	"bufio"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/ingress"
	"kairos/internal/models"
	"kairos/internal/server"
)

// TestNegotiatedBinaryHandshake pins the one handshake: the serving peer
// announces ProtoBinary, the dialer acks it, and binary frames follow.
// Anything else in place of the ack ends the connection before a single
// query is served, and a dialer refuses a banner naming another version.
func TestNegotiatedBinaryHandshake(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	s, err := server.NewInstanceServer(cloud.G4dnXlarge.Name, m, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// exchange dials the instance, checks its banner, writes first in
	// place of the ack, then one binary query, and returns the reply or
	// the read error that ended the connection.
	exchange := func(t *testing.T, first any) (server.Reply, error) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var hello server.Hello
		if err := server.ReadFrame(br, &hello); err != nil {
			t.Fatal(err)
		}
		if hello.Proto != server.ProtoBinary || hello.Model != m.Name {
			t.Fatalf("banner %+v", hello)
		}
		if err := server.WriteFrame(conn, first); err != nil {
			t.Fatal(err)
		}
		frame, err := server.AppendRequestFrame(nil, server.Request{ID: 99, Model: m.Name, Batch: 50})
		if err != nil {
			t.Fatal(err)
		}
		// The instance may already have hung up; the read below reports it.
		conn.Write(frame)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		p, err := server.ReadRawFrame(br, nil)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("instance neither replied nor hung up")
			}
			return server.Reply{}, err
		}
		return server.DecodeReplyFrame(p)
	}
	// refused runs exchange and wants the connection ended without a reply.
	refused := func(first any) func(t *testing.T) {
		return func(t *testing.T) {
			if rep, err := exchange(t, first); err == nil {
				t.Fatalf("served %+v after a bad ack", rep)
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ack ProtoBinary serves", func(t *testing.T) {
			rep, err := exchange(t, server.HelloAck{Proto: server.ProtoBinary})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != 99 || rep.Err != "" || rep.ServiceMS <= 0 {
				t.Fatalf("reply = %+v", rep)
			}
		}},
		{"JSON request in place of the ack", refused(server.Request{ID: 1, Model: m.Name, Batch: 50})},
		{"ack naming version 2", refused(server.HelloAck{Proto: 2})},
		{"banner announcing version 2", func(t *testing.T) {
			addr := bannerOnly(t, server.Hello{TypeName: cloud.G4dnXlarge.Name, Model: m.Name, Proto: 2})
			ctrl, err := server.NewController(m.Name, &server.LeastBacklog{}, 1, m.Latency, []string{addr})
			if err == nil {
				ctrl.Close()
				t.Fatal("NewController accepted a version-2 instance")
			}
			if !strings.Contains(err.Error(), "version 2") {
				t.Fatalf("NewController error %q does not name the version", err)
			}
			c, err := ingress.Dial(addr)
			if err == nil {
				c.Close()
				t.Fatal("ingress.Dial accepted a version-2 front door")
			}
			if !strings.Contains(err.Error(), "version 2") {
				t.Fatalf("ingress.Dial error %q does not name the version", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// bannerOnly listens on loopback and sends hello to every connection,
// then holds it open until the dialer hangs up.
func bannerOnly(t *testing.T, hello server.Hello) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if server.WriteFrame(conn, hello) == nil {
					conn.Read(make([]byte, 1))
				}
			}()
		}
	}()
	return ln.Addr().String()
}
