package elements

import (
	"fmt"
	"net/netip"
	"strconv"

	"routebricks/internal/click"
	"routebricks/internal/pkt"
)

// StandardRegistry exposes the element library to Click-language
// configurations (click.ParseConfig / click.ParseProgram). Every
// zero-resource element in the library has a factory here; elements
// that need runtime resources — device rings (PollDevice, ToDevice,
// RED), route tables (LPMLookup), crypto tunnels (ESPEncap/ESPDecap),
// capture writers (Tap) — are passed to the parser as prebound
// instances instead of being constructed from text. The completeness
// test in registry_test.go reflects over the package so a new element
// cannot silently go unregisterable.
func StandardRegistry() click.Registry {
	return click.Registry{
		"Counter": func(args []string) (click.Element, error) {
			if err := arity("Counter", args, 0); err != nil {
				return nil, err
			}
			return &Counter{}, nil
		},
		"FlowCounter": func(args []string) (click.Element, error) {
			if err := arity("FlowCounter", args, 0); err != nil {
				return nil, err
			}
			return NewFlowCounter(), nil
		},
		"Discard": func(args []string) (click.Element, error) {
			if err := arity("Discard", args, 0); err != nil {
				return nil, err
			}
			return &Discard{}, nil
		},
		"CheckIPHeader": func(args []string) (click.Element, error) {
			if err := arity("CheckIPHeader", args, 0); err != nil {
				return nil, err
			}
			return &CheckIPHeader{}, nil
		},
		"DecIPTTL": func(args []string) (click.Element, error) {
			if err := arity("DecIPTTL", args, 0); err != nil {
				return nil, err
			}
			return &DecIPTTL{}, nil
		},
		"Stamp": func(args []string) (click.Element, error) {
			if err := arity("Stamp", args, 0); err != nil {
				return nil, err
			}
			return &Stamp{}, nil
		},
		"Tee": func(args []string) (click.Element, error) {
			n, err := oneInt("Tee", args)
			if err != nil {
				return nil, err
			}
			return NewTee(n), nil
		},
		"HopSwitch": func(args []string) (click.Element, error) {
			n, err := oneInt("HopSwitch", args)
			if err != nil {
				return nil, err
			}
			return NewHopSwitch(n), nil
		},
		"Paint": func(args []string) (click.Element, error) {
			n, err := oneInt("Paint", args)
			if err != nil {
				return nil, err
			}
			return &Paint{Color: byte(n)}, nil
		},
		"PaintSwitch": func(args []string) (click.Element, error) {
			n, err := oneInt("PaintSwitch", args)
			if err != nil {
				return nil, err
			}
			return &PaintSwitch{N: n}, nil
		},
		"SetEtherDst": func(args []string) (click.Element, error) {
			n, err := oneInt("SetEtherDst", args)
			if err != nil {
				return nil, err
			}
			return &SetEtherDst{MAC: pkt.NodeMAC(n)}, nil
		},
		"IPClassifier": func(args []string) (click.Element, error) {
			if len(args) == 0 {
				return nil, fmt.Errorf("IPClassifier needs at least one rule")
			}
			return NewIPClassifier(args...)
		},
		"EtherMirror": func(args []string) (click.Element, error) {
			if err := arity("EtherMirror", args, 0); err != nil {
				return nil, err
			}
			return &EtherMirror{}, nil
		},
		"Fragmenter": func(args []string) (click.Element, error) {
			n, err := oneInt("Fragmenter", args)
			if err != nil {
				return nil, err
			}
			return NewFragmenter(n), nil
		},
		"Reassembler": func(args []string) (click.Element, error) {
			if err := arity("Reassembler", args, 0); err != nil {
				return nil, err
			}
			return NewReassembler(), nil
		},
		"Sink": func(args []string) (click.Element, error) {
			if err := arity("Sink", args, 0); err != nil {
				return nil, err
			}
			return &Sink{Recycle: pkt.DefaultPool}, nil
		},
		"Shaper": func(args []string) (click.Element, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("Shaper takes (rate-bps, burst-bytes), got %d arguments", len(args))
			}
			rate, err := strconv.ParseFloat(args[0], 64)
			if err != nil || rate <= 0 {
				return nil, fmt.Errorf("Shaper: bad rate %q", args[0])
			}
			burst, err := strconv.ParseFloat(args[1], 64)
			if err != nil || burst <= 0 {
				return nil, fmt.Errorf("Shaper: bad burst %q", args[1])
			}
			return NewShaper(rate, burst), nil
		},
		"ICMPError": func(args []string) (click.Element, error) {
			if len(args) != 3 {
				return nil, fmt.Errorf("ICMPError takes (src-ip, type, code), got %d arguments", len(args))
			}
			src, err := netip.ParseAddr(args[0])
			if err != nil || !src.Is4() {
				return nil, fmt.Errorf("ICMPError: bad source address %q", args[0])
			}
			typ, err := strconv.ParseUint(args[1], 0, 8)
			if err != nil {
				return nil, fmt.Errorf("ICMPError: bad type %q", args[1])
			}
			code, err := strconv.ParseUint(args[2], 0, 8)
			if err != nil {
				return nil, fmt.Errorf("ICMPError: bad code %q", args[2])
			}
			return NewICMPError(src, uint8(typ), uint8(code)), nil
		},
		"ARPResponder": func(args []string) (click.Element, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("ARPResponder takes (node, ip...), got %d arguments", len(args))
			}
			node, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, fmt.Errorf("ARPResponder: bad node %q", args[0])
			}
			addrs := make([]netip.Addr, 0, len(args)-1)
			for _, a := range args[1:] {
				ip, err := netip.ParseAddr(a)
				if err != nil || !ip.Is4() {
					return nil, fmt.Errorf("ARPResponder: bad address %q", a)
				}
				addrs = append(addrs, ip)
			}
			return NewARPResponder(pkt.NodeMAC(node), addrs...), nil
		},
		"ARPQuerier": func(args []string) (click.Element, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("ARPQuerier takes (node, ip), got %d arguments", len(args))
			}
			node, err := strconv.Atoi(args[0])
			if err != nil {
				return nil, fmt.Errorf("ARPQuerier: bad node %q", args[0])
			}
			ip, err := netip.ParseAddr(args[1])
			if err != nil || !ip.Is4() {
				return nil, fmt.Errorf("ARPQuerier: bad address %q", args[1])
			}
			return NewARPQuerier(pkt.NodeMAC(node), ip), nil
		},
		"Classifier": func(args []string) (click.Element, error) {
			if len(args) == 0 {
				return nil, fmt.Errorf("Classifier needs at least one EtherType")
			}
			types := make([]uint16, len(args))
			for i, a := range args {
				v, err := strconv.ParseUint(a, 0, 16)
				if err != nil {
					return nil, fmt.Errorf("Classifier: bad EtherType %q", a)
				}
				types[i] = uint16(v)
			}
			return NewClassifier(types...), nil
		},
	}
}

func arity(class string, args []string, want int) error {
	if len(args) != want {
		return fmt.Errorf("%s takes %d arguments, got %d", class, want, len(args))
	}
	return nil
}

func oneInt(class string, args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("%s takes one integer argument, got %d", class, len(args))
	}
	v, err := strconv.Atoi(args[0])
	if err != nil {
		return 0, fmt.Errorf("%s: bad argument %q", class, args[0])
	}
	return v, nil
}
