package cluster

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"strings"

	"fullview/internal/jsonlog"
)

// Member is one cluster replica: a stable name (the ring identity —
// renaming a member moves its keys) and the base URL its fvcd listens
// on.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Peers is the cluster membership, normally loaded from a peers file.
// Every replica and every router in one cluster must load the same
// file (or byte-equivalent content): the ring is derived from the
// member names and the virtual-node count, so agreement on the file is
// agreement on every key placement.
//
// The file is JSON:
//
//	{
//	  "virtualNodes": 160,
//	  "members": [
//	    {"name": "a", "url": "http://127.0.0.1:8081"},
//	    {"name": "b", "url": "http://127.0.0.1:8082"},
//	    {"name": "c", "url": "http://127.0.0.1:8083"}
//	  ]
//	}
//
// virtualNodes may be omitted (DefaultVirtualNodes).
type Peers struct {
	VirtualNodes int      `json:"virtualNodes,omitempty"`
	Members      []Member `json:"members"`
}

// LoadPeers reads and validates a peers file.
func LoadPeers(path string) (*Peers, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read peers file: %w", err)
	}
	p, err := ParsePeers(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: peers file %s: %w", path, err)
	}
	return p, nil
}

// ParsePeers decodes and validates a peers document. Unknown fields
// are rejected — a misspelt key silently changing cluster topology is
// the kind of error that must fail loudly.
func ParsePeers(data []byte) (*Peers, error) {
	var p Peers
	if err := jsonlog.Decode(data, &p); err != nil {
		return nil, err
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// validate enforces the invariants the ring and router rely on.
func (p *Peers) validate() error {
	if len(p.Members) == 0 {
		return errors.New("no members")
	}
	if p.VirtualNodes < 0 {
		return fmt.Errorf("virtualNodes %d must be non-negative", p.VirtualNodes)
	}
	names := make(map[string]bool, len(p.Members))
	urls := make(map[string]bool, len(p.Members))
	for i, m := range p.Members {
		if m.Name == "" {
			return fmt.Errorf("member %d has no name", i)
		}
		if names[m.Name] {
			return fmt.Errorf("duplicate member name %q", m.Name)
		}
		names[m.Name] = true
		u, err := url.Parse(m.URL)
		if err != nil {
			return fmt.Errorf("member %q: bad url: %v", m.Name, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return fmt.Errorf("member %q: url %q must be http or https", m.Name, m.URL)
		}
		if u.Host == "" {
			return fmt.Errorf("member %q: url %q has no host", m.Name, m.URL)
		}
		norm := strings.TrimRight(m.URL, "/")
		if urls[norm] {
			return fmt.Errorf("duplicate member url %q", m.URL)
		}
		urls[norm] = true
	}
	return nil
}

// Ring builds the cluster's consistent-hash ring over the member
// names.
func (p *Peers) Ring() (*Ring, error) {
	names := make([]string, len(p.Members))
	for i, m := range p.Members {
		names[i] = m.Name
	}
	return NewRing(names, p.VirtualNodes)
}

// URL returns the base URL of the named member (trailing slash
// trimmed).
func (p *Peers) URL(name string) (string, bool) {
	for _, m := range p.Members {
		if m.Name == name {
			return strings.TrimRight(m.URL, "/"), true
		}
	}
	return "", false
}

// Others returns the members other than self, in file order. Self not
// being a member at all is fine (a router is not a member).
func (p *Peers) Others(self string) []Member {
	out := make([]Member, 0, len(p.Members))
	for _, m := range p.Members {
		if m.Name != self {
			out = append(out, m)
		}
	}
	return out
}

// Has reports whether name is a member.
func (p *Peers) Has(name string) bool {
	_, ok := p.URL(name)
	return ok
}
